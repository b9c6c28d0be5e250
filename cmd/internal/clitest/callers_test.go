package clitest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitNames are method names a caller reaches through an interface the
// standard library calls, so no file of the repository spells the call.
var implicitNames = map[string]string{
	"String": "fmt.Stringer: the fmt verbs call it",
	"Error":  "error: errors print through it",
	"Write":  "io.Writer: fmt.Fprintf and io.Copy call it",
}

// TestEveryFunctionHasAProductionCaller holds the root module to the rule of
// docs/SURFACE.md "Functions": every function or method a non-test file
// declares is named by some non-test file of the repository — cmd/uuperf
// (its own module) and examples/ count as callers. It matches by name, so it
// can miss a dead method that shares its name with a live one, never flag a
// live one. Exempt: main and init (the runtime calls them), the names in
// implicitNames, and this package (test support: its callers are tests).
func TestEveryFunctionHasAProductionCaller(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	named := map[string]bool{}
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(filepath.Dir(path))
		if err != nil {
			return err
		}
		declares := abs != self && !strings.Contains(filepath.ToSlash(path), "cmd/uuperf/")
		declNames := map[*ast.Ident]bool{}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declNames[fd.Name] = true
				if declares {
					decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Pos())})
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, d := range decls {
		if d.name == "main" || d.name == "init" || implicitNames[d.name] != "" || named[d.name] {
			continue
		}
		orphans = append(orphans, d.pos.String()+": "+d.name)
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is named by no non-test file: delete it, or move it beside the test that calls it", o)
	}
}
