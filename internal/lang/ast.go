package lang

import "fmt"

// TypeName is a MiniCU scalar or pointer type.
type TypeName struct {
	Base string // "bool", "int", "long", "float", "double"
	Ptr  bool
}

func (t TypeName) String() string {
	if t.Ptr {
		return t.Base + "*"
	}
	return t.Base
}

// Param is a kernel parameter declaration.
type Param struct {
	Type     TypeName
	Name     string
	Restrict bool
}

// Kernel is a top-level kernel definition.
type Kernel struct {
	Name   string
	Params []Param
	Body   *BlockStmt
}

// Stmt is a statement node. Its line is the 1-based source line the
// lowerer stamps on its instructions and reports its errors at; a block has
// no line of its own (0).
type Stmt interface{ line() int }

// Expr is an expression node.
type Expr interface{ exprNode() }

// BlockStmt is a `{ ... }` statement list with its own scope.
type BlockStmt struct{ Stmts []Stmt }

// DeclStmt declares a local variable with an optional initializer.
type DeclStmt struct {
	Type TypeName
	Name string
	Init Expr // may be nil
	Line int
}

// AssignStmt assigns to a variable or array element. Op is "=", "+=", etc.
type AssignStmt struct {
	LHS  Expr // *IdentExpr or *IndexExpr
	Op   string
	RHS  Expr
	Line int
}

// IncDecStmt is `x++;` or `x--;` (also usable in for-posts).
type IncDecStmt struct {
	LHS  Expr
	Op   string // "++" or "--"
	Line int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt, *IfStmt, or nil
	Line int
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body *BlockStmt
	Line int
}

// DoWhileStmt is a do { } while loop.
type DoWhileStmt struct {
	Body *BlockStmt
	Cond Expr
	Line int
}

// ForStmt is a C-style for loop.
type ForStmt struct {
	Init Stmt // DeclStmt, AssignStmt, IncDecStmt, or nil
	Cond Expr // nil means true
	Post Stmt // AssignStmt, IncDecStmt, or nil
	Body *BlockStmt
	Line int
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ Line int }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Line int }

// ReturnStmt leaves the kernel.
type ReturnStmt struct{ Line int }

// ExprStmt evaluates an expression for effect (builtin calls).
type ExprStmt struct {
	X    Expr
	Line int
}

func (*BlockStmt) line() int      { return 0 }
func (s *DeclStmt) line() int     { return s.Line }
func (s *AssignStmt) line() int   { return s.Line }
func (s *IncDecStmt) line() int   { return s.Line }
func (s *IfStmt) line() int       { return s.Line }
func (s *WhileStmt) line() int    { return s.Line }
func (s *DoWhileStmt) line() int  { return s.Line }
func (s *ForStmt) line() int      { return s.Line }
func (s *BreakStmt) line() int    { return s.Line }
func (s *ContinueStmt) line() int { return s.Line }
func (s *ReturnStmt) line() int   { return s.Line }
func (s *ExprStmt) line() int     { return s.Line }

// IntLit is an integer literal (value fits the chosen type).
type IntLit struct {
	Value int64
	Long  bool // had L suffix
}

// FloatLit is a floating literal.
type FloatLit struct {
	Value  float64
	Single bool // had f suffix
}

// IdentExpr references a variable or parameter.
type IdentExpr struct{ Name string }

// UnaryExpr is -x, !x, ~x.
type UnaryExpr struct {
	Op string
	X  Expr
}

// BinaryExpr is a binary operation, including && and || (short-circuit).
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// TernaryExpr is c ? a : b (lowered with control flow, like Clang).
type TernaryExpr struct {
	Cond, Then, Else Expr
}

// IndexExpr is base[idx].
type IndexExpr struct {
	Base Expr
	Idx  Expr
}

// CallExpr calls a builtin.
type CallExpr struct {
	Name string
	Args []Expr
}

// CastExpr is (type)x.
type CastExpr struct {
	Type TypeName
	X    Expr
}

func (*IntLit) exprNode()      {}
func (*FloatLit) exprNode()    {}
func (*IdentExpr) exprNode()   {}
func (*UnaryExpr) exprNode()   {}
func (*BinaryExpr) exprNode()  {}
func (*TernaryExpr) exprNode() {}
func (*IndexExpr) exprNode()   {}
func (*CallExpr) exprNode()    {}
func (*CastExpr) exprNode()    {}

// Error is a parse or type error with position information.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("lang: line %d:%d: %s", e.Line, e.Col, e.Msg)
}
