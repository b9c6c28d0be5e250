package clitest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
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

// testSupport are the packages whose callers are tests, by directory.
var testSupport = map[string]string{
	"cmd/internal/clitest": "the tools' golden and census tests",
	"internal/corpus":      "the differential tests' shared corpus",
}

// TestEveryFunctionHasAProductionCaller holds the root module to the rule of
// docs/SURFACE.md "Functions": every function or method a non-test file
// declares is named by some non-test file of the repository — cmd/uuperf
// (its own module) and examples/ count as callers. A top-level function is
// named only by a file of its own package or through its package's import
// (pkg.Name); a method by any identifier that spells it, so the check can
// miss a dead method that shares its name with a live one, never flag a
// live one. Exempt: main and init (the runtime calls them), the methods in
// implicitNames, and the packages in testSupport.
func TestEveryFunctionHasAProductionCaller(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	fset := token.NewFileSet()
	named := map[string]bool{}            // every identifier, for methods
	calls := map[string]map[string]bool{} // import path -> names its own files or importers spell
	name := func(pkg, id string) {
		if calls[pkg] == nil {
			calls[pkg] = map[string]bool{}
		}
		calls[pkg][id] = true
	}
	type decl struct {
		pkg, name string // pkg is "" for a method
		pos       token.Position
	}
	var decls []decl
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && p != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := path.Join("uu", rel)
		declares := testSupport[rel] == "" && !strings.HasPrefix(rel, "cmd/uuperf")
		imports := map[string]string{} // local name -> import path
		for _, im := range file.Imports {
			ip, _ := strconv.Unquote(im.Path.Value) // the parser accepted it
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		declNames, sels := map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declNames[fd.Name] = true
				if declares {
					d := decl{pkg, fd.Name.Name, fset.Position(fd.Pos())}
					if fd.Recv != nil {
						d.pkg = ""
					}
					decls = append(decls, d)
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					name(imports[x.Name], n.Sel.Name)
				}
			case *ast.Ident:
				if declNames[n] {
					break
				}
				named[n.Name] = true
				if !sels[n] {
					name(pkg, n.Name)
				}
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
		if d.name == "main" || d.name == "init" {
			continue
		}
		if d.pkg == "" && (implicitNames[d.name] != "" || named[d.name]) || d.pkg != "" && calls[d.pkg][d.name] {
			continue
		}
		orphans = append(orphans, d.pos.String()+": "+d.name)
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is named by no non-test file: delete it, or move it beside the test that calls it", o)
	}
}
