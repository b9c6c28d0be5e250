package analysis

import (
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoDirectAnalysisConstruction enforces the pass-manager invariant: passes
// and the pipeline must obtain dominator trees and loop info through the
// AnalysisManager (which caches and invalidates them), never by constructing
// them directly — a direct construction silently bypasses the cache and brings
// back the per-query recomputation this refactor removed. Constructing other
// analyses (divergence, path counts) directly is fine; only the two hot,
// cached ones are locked down.
func TestNoDirectAnalysisConstruction(t *testing.T) {
	banned := []string{"analysis.NewDomTree(", "analysis.NewLoopInfo("}
	for _, dir := range []string{"../transform", "../core", "../pipeline"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range banned {
				if strings.Contains(string(src), b) {
					t.Errorf("%s uses %s — query the AnalysisManager instead (am.DomTree()/am.LoopInfo())", path, strings.TrimSuffix(b, "("))
				}
			}
		}
	}
}

// pointerKeyedTables is what TestNoPointerKeyedTablesOnHotPaths lets
// through: per file, the top-level declarations that may still spell a map
// keyed by *ir.Block, *ir.Instr or ir.Value, and why each survives.
var pointerKeyedTables = map[string]map[string]string{
	"../analysis/domtree.go": {
		"Frontier": "built once per compilation, for mem2reg's phi placement; its result is the API",
	},
	"../transform/utils.go": {
		"fixLCSSAUses": "phiAt holds the one or two exit phis of a single escaping definition",
	},
	"../transform/gvn.go": {
		"gvnState": "repl is keyed by ir.Value: constants and parameters have no ID, and the pass keeps the map across invocations",
		"reset":    "allocates gvnState.repl once per compilation",
	},
	"../core/unmerge.go": {
		"Options": "Origins is the caller's map; only ConditionProvenance and its tests pass one",
	},
}

// TestNoPointerKeyedTablesOnHotPaths holds the rule of DESIGN.md §16 where a
// u=8 compile spends its time: a per-block or per-instruction fact is a
// slice indexed by Block.ID / Instr.ID, not a map hashed by the pointer. A
// new map[*ir.Block]…, map[*ir.Instr]… or map[ir.Value]… in one of these
// files fails unless its declaration is listed above with a reason.
func TestNoPointerKeyedTablesOnHotPaths(t *testing.T) {
	files := []string{
		"../analysis/domtree.go", "../analysis/loopinfo.go",
		"../transform/sccp.go", "../transform/utils.go", "../transform/gvn.go",
		"../core/unmerge.go", "../ir/clone.go", "../ir/verify.go",
	}
	hot := map[string]bool{"*ir.Block": true, "*ir.Instr": true, "ir.Value": true, "*Block": true, "*Instr": true, "Value": true}
	for _, path := range files {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		used := map[string]bool{}
		for _, decl := range file.Decls {
			var names []string
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names = []string{d.Name.Name}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names = append(names, n.Name)
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				m, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				var key strings.Builder
				if err := printer.Fprint(&key, fset, m.Key); err != nil {
					t.Fatal(err)
				}
				if !hot[key.String()] {
					return true
				}
				for _, name := range names {
					if _, ok := pointerKeyedTables[path][name]; ok {
						used[name] = true
						return true
					}
				}
				t.Errorf("%s: a map keyed by %s in %s — index a slice by ID() instead, or list the declaration in pointerKeyedTables with the reason it must hash",
					fset.Position(m.Pos()), key.String(), strings.Join(names, ", "))
				return true
			})
		}
		for name := range pointerKeyedTables[path] {
			if !used[name] {
				t.Errorf("%s: pointerKeyedTables lists %s, which no longer declares a pointer-keyed map — drop the entry", path, name)
			}
		}
	}
}
