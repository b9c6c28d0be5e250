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

// packageLocal are the exported functions under internal/ that no other
// package names, each kept exported for its reason.
var packageLocal = map[string]string{
	"uu/internal/serve.CanonicalIR": "the cache-key contract DESIGN.md §13 and cmd/uuperf/README.md name",
	"uu/internal/serve.Fingerprint": "the cache-key contract DESIGN.md §13 and cmd/uuperf/README.md name",
}

// TestEveryFunctionHasAProductionCaller holds the root module to the rules of
// docs/SURFACE.md "Functions". Every function or method a non-test file
// declares is named by some non-test file of the repository — cmd/uuperf
// (its own module) and examples/ count as callers. A top-level function is
// named only by a file of its own package or through its package's import
// (pkg.Name); a method by any identifier that spells it, so the check can
// miss a dead method that shares its name with a live one, never flag a
// live one. Exempt: main and init (the runtime calls them), the methods in
// implicitNames, and the packages in testSupport. And every exported
// top-level function under internal/ is a cross-package contract: some file
// of another directory, test files included, names it as pkg.Name, unless
// packageLocal keeps it.
func TestEveryFunctionHasAProductionCaller(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	fset := token.NewFileSet()
	named := map[string]bool{}            // every identifier, for methods
	calls := map[string]map[string]bool{} // import path -> names its own files or importers spell
	cross := map[string]map[string]bool{} // import path -> names other packages' files, tests too, spell
	name := func(to map[string]map[string]bool, pkg, id string) {
		if to[pkg] == nil {
			to[pkg] = map[string]bool{}
		}
		to[pkg][id] = true
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		isTest := strings.HasSuffix(p, "_test.go")
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
		if isTest {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" && imports[x.Name] != pkg {
						name(cross, imports[x.Name], sel.Sel.Name)
					}
				}
				return true
			})
			return nil
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
					name(calls, imports[x.Name], n.Sel.Name)
					if imports[x.Name] != pkg {
						name(cross, imports[x.Name], n.Sel.Name)
					}
				}
			case *ast.Ident:
				if declNames[n] {
					break
				}
				named[n.Name] = true
				if !sels[n] {
					name(calls, pkg, n.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans, local []string
	kept := map[string]bool{}
	for _, d := range decls {
		if d.name == "main" || d.name == "init" {
			continue
		}
		if d.pkg != "" && strings.HasPrefix(d.pkg, "uu/internal/") && ast.IsExported(d.name) && !cross[d.pkg][d.name] {
			if key := d.pkg + "." + d.name; packageLocal[key] != "" {
				kept[key] = true
			} else {
				local = append(local, d.pos.String()+": "+d.name)
			}
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
	sort.Strings(local)
	for _, o := range local {
		t.Errorf("%s is exported but no other package names it: unexport it", o)
	}
	for key := range packageLocal {
		if !kept[key] {
			t.Errorf("packageLocal keeps %s, which is gone or named by another package: drop its entry", key)
		}
	}
}
