package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// parse parses a MiniCU source into its one kernel; a source that defines
// none or several is an error at line 1.
func parse(src string) (*Kernel, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var kernels []*Kernel
	for !p.at(tokEOF, "") {
		k, err := p.parseKernel()
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	if len(kernels) != 1 {
		return nil, &Error{1, 1, fmt.Sprintf("expected 1 kernel, got %d", len(kernels))}
	}
	return kernels[0], nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(text string) bool {
	if p.cur().text == text && p.cur().kind != tokEOF {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) (token, error) {
	if p.cur().text == text {
		return p.next(), nil
	}
	t := p.cur()
	return t, &Error{t.line, t.col, fmt.Sprintf("expected %q, found %q", text, t.text)}
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &Error{t.line, t.col, fmt.Sprintf(format, args...)}
}

var typeNames = map[string]bool{
	"bool": true, "int": true, "long": true, "float": true, "double": true,
}

func (p *parser) peekType() bool {
	t := p.cur()
	if t.kind != tokIdent {
		return false
	}
	if typeNames[t.text] {
		return true
	}
	return t.text == "const" || t.text == "global"
}

// parseTypeName parses [const|global]* base [*].
func (p *parser) parseTypeName() (TypeName, error) {
	for p.accept("const") || p.accept("global") {
	}
	t := p.cur()
	if t.kind != tokIdent || !typeNames[t.text] {
		return TypeName{}, p.errf("expected type name, found %q", t.text)
	}
	p.next()
	tn := TypeName{Base: t.text}
	if p.accept("*") {
		tn.Ptr = true
	}
	return tn, nil
}

func (p *parser) parseKernel() (*Kernel, error) {
	if _, err := p.expect("kernel"); err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, &Error{nameTok.line, nameTok.col, "expected kernel name"}
	}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	k := &Kernel{Name: nameTok.text}
	for !p.accept(")") {
		if len(k.Params) > 0 {
			if _, err := p.expect(","); err != nil {
				return nil, err
			}
		}
		tn, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		restrict := false
		for p.accept("restrict") || p.accept("__restrict__") {
			restrict = true
		}
		pn := p.next()
		if pn.kind != tokIdent {
			return nil, &Error{pn.line, pn.col, "expected parameter name"}
		}
		k.Params = append(k.Params, Param{Type: tn, Name: pn.text, Restrict: restrict})
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	k.Body = body
	return k, nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &BlockStmt{}
	for !p.accept("}") {
		if p.at(tokEOF, "") {
			return nil, p.errf("unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

// parseStmtOrBlock parses either a braced block or a single statement
// wrapped in a block (C-style bodies).
func (p *parser) parseStmtOrBlock() (*BlockStmt, error) {
	if p.at(tokPunct, "{") {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &BlockStmt{Stmts: []Stmt{s}}, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.text == "{":
		return p.parseBlock()
	case t.text == "if":
		return p.parseIf()
	case t.text == "while":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmtOrBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.line}, nil
	case t.text == "do":
		p.next()
		body, err := p.parseStmtOrBlock()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("while"); err != nil {
			return nil, err
		}
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Body: body, Cond: cond, Line: t.line}, nil
	case t.text == "for":
		return p.parseFor()
	case t.text == "break":
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.line}, nil
	case t.text == "continue":
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.line}, nil
	case t.text == "return":
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{Line: t.line}, nil
	case p.peekType():
		return p.parseDecl(true)
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *parser) parseDecl(wantSemi bool) (Stmt, error) {
	line := p.cur().line
	tn, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, &Error{nameTok.line, nameTok.col, "expected variable name"}
	}
	var init Expr
	if p.accept("=") {
		init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if wantSemi {
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	return &DeclStmt{Type: tn, Name: nameTok.text, Init: init, Line: line}, nil
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement
// (no trailing semicolon).
func (p *parser) parseSimpleStmt() (Stmt, error) {
	line := p.cur().line
	// Prefix ++/--.
	if p.cur().text == "++" || p.cur().text == "--" {
		op := p.next().text
		lhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &IncDecStmt{LHS: lhs, Op: op, Line: line}, nil
	}
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch tok := p.cur().text; tok {
	case "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=":
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lhs, Op: tok, RHS: rhs, Line: line}, nil
	case "++", "--":
		p.next()
		return &IncDecStmt{LHS: lhs, Op: tok, Line: line}, nil
	}
	return &ExprStmt{X: lhs, Line: line}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	line := p.cur().line
	p.next() // if
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmtOrBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Line: line}
	if p.accept("else") {
		if p.cur().text == "if" {
			st.Else, err = p.parseIf()
		} else {
			st.Else, err = p.parseStmtOrBlock()
		}
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseFor() (Stmt, error) {
	line := p.cur().line
	p.next() // for
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	st := &ForStmt{Line: line}
	if !p.accept(";") {
		var err error
		if p.peekType() {
			st.Init, err = p.parseDecl(false)
		} else {
			st.Init, err = p.parseSimpleStmt()
		}
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		var err error
		st.Cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.at(tokPunct, ")") {
		var err error
		st.Post, err = p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmtOrBlock()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// Expression parsing: precedence climbing.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseExpr() (Expr, error) {
	return p.parseTernary()
}

func (p *parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return cond, nil
	}
	thenE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	elseE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &TernaryExpr{Cond: cond, Then: thenE, Else: elseE}, nil
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec, ok := binPrec[t.text]
		if t.kind != tokPunct || !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: t.text, L: lhs, R: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.kind == tokPunct {
		switch t.text {
		case "-", "!", "~", "+":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if t.text == "+" {
				return x, nil
			}
			return &UnaryExpr{Op: t.text, X: x}, nil
		case "(":
			// Cast or parenthesized expression.
			if p.toks[p.pos+1].kind == tokIdent && (typeNames[p.toks[p.pos+1].text] ||
				p.toks[p.pos+1].text == "const") {
				p.next()
				tn, err := p.parseTypeName()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &CastExpr{Type: tn, X: x}, nil
			}
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{Base: x, Idx: idx}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.next()
		text := t.text
		long := false
		if strings.HasSuffix(text, "L") || strings.HasSuffix(text, "l") {
			long = true
			text = text[:len(text)-1]
		}
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			uv, uerr := strconv.ParseUint(text, 0, 64)
			if uerr != nil {
				return nil, &Error{t.line, t.col, "bad integer literal " + t.text}
			}
			v = int64(uv)
		}
		return &IntLit{Value: v, Long: long}, nil
	case tokFloat:
		p.next()
		text := t.text
		single := false
		if strings.HasSuffix(text, "f") || strings.HasSuffix(text, "F") {
			single = true
			text = text[:len(text)-1]
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, &Error{t.line, t.col, "bad float literal " + t.text}
		}
		return &FloatLit{Value: v, Single: single}, nil
	case tokIdent:
		switch t.text {
		case "true":
			p.next()
			return &IntLit{Value: 1}, nil
		case "false":
			p.next()
			return &IntLit{Value: 0}, nil
		}
		p.next()
		if p.accept("(") {
			call := &CallExpr{Name: t.text}
			for !p.accept(")") {
				if len(call.Args) > 0 {
					if _, err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			return call, nil
		}
		return &IdentExpr{Name: t.text}, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, &Error{t.line, t.col, fmt.Sprintf("unexpected token %q", t.text)}
}
