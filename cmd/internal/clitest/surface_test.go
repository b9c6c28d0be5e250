package clitest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestSurfaceCensus holds docs/SURFACE.md to the tree: every test it names
// is a test function of some _test.go file, every golden case it names for
// a tool's TestGolden is a file under that tool's testdata, and every
// repository path it names exists. Each run-function tool's own
// TestSurfaceCensus holds its flag rows to its flag set; uud defines its
// flags on the global set inside main, so its rows are held here to the flag
// definitions in its source. The option-field rows are held to the structs
// they name (fieldCensus), and the Counts table to both censuses.
func TestSurfaceCensus(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	data, err := os.ReadFile(filepath.Join(root, "docs", "SURFACE.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	src, err := os.ReadFile(filepath.Join(root, "cmd", "uud", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`\bflag\.\w+\("([\w-]+)"`).FindAllSubmatch(src, -1) {
		names = append(names, string(m[1]))
	}
	CensusNames(t, doc, "uud", names)

	tests := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			tests[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range regexp.MustCompile(`\bTest\w+`).FindAllString(doc, -1) {
		if !tests[name] {
			t.Errorf("docs/SURFACE.md names %s, which no _test.go file defines", name)
		}
	}

	goldenCase := regexp.MustCompile(`TestGolden/([\w-]+)`)
	for _, row := range surfaceRow.FindAllStringSubmatch(doc, -1) {
		for _, m := range goldenCase.FindAllStringSubmatch(row[3], -1) {
			golden := filepath.Join(root, "cmd", row[1], "testdata", m[1]+".golden")
			if _, err := os.Stat(golden); err != nil {
				t.Errorf("the row of %s -%s names TestGolden/%s: %v", row[1], row[2], m[1], err)
			}
		}
	}

	for _, path := range regexp.MustCompile(`\b(?:results|cmd|internal|examples)/[\w./-]*\w`).FindAllString(doc, -1) {
		if _, err := os.Stat(filepath.Join(root, path)); err != nil {
			t.Errorf("docs/SURFACE.md names %s: %v", path, err)
		}
	}

	checkCounts(t, doc, fieldCensus(t, root, doc))
}

// fieldCensus holds docs/SURFACE.md's "Exported option fields" table to the
// structs its rows name, parsed from the non-test files under internal/:
// every exported field of each has a row with an exerciser, and every row
// names a field that exists. A row's first cell lists
// `pkg.Struct.Field` / `.Field` … It returns the number of fields.
func fieldCensus(t *testing.T, root, doc string) int {
	table := doc[strings.Index(doc, "## Exported option fields"):]
	table = table[:strings.Index(table, "\n## ")]
	rows := map[string]bool{}    // pkg.Struct.Field
	structs := map[string]bool{} // pkg.Struct
	for _, m := range regexp.MustCompile("(?m)^\\| (`[^|\n]*`) \\|([^|\n]*)\\|").FindAllStringSubmatch(table, -1) {
		if strings.TrimSpace(m[2]) == "" {
			t.Errorf("docs/SURFACE.md: the row of %s names no exerciser", m[1])
		}
		var strct string
		for _, n := range regexp.MustCompile("`([\\w.]+)`").FindAllStringSubmatch(m[1], -1) {
			name := n[1]
			if strings.HasPrefix(name, ".") {
				name = strct + name
			} else {
				strct = name[:strings.LastIndex(name, ".")]
			}
			structs[strct], rows[name] = true, true
		}
	}

	fields := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if strct := f.Name.Name + "." + ts.Name.Name; ok && structs[strct] {
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() {
							fields[strct+"."+name.Name] = true
						}
					}
				}
			}
			return false
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range fields {
		if !rows[name] {
			t.Errorf("%s has no row in docs/SURFACE.md", name)
		}
	}
	for name := range rows {
		if !fields[name] {
			t.Errorf("docs/SURFACE.md has a row for %s, which is not an exported field", name)
		}
	}
	return len(fields)
}

// checkCounts holds the "now" column of docs/SURFACE.md's Counts table to
// what the censuses count: the flag total and each tool's share are the
// flag rows (which every tool's census holds to its flag set), and the
// field total is fieldCensus's.
func checkCounts(t *testing.T, doc string, fields int) {
	flagsRow := regexp.MustCompile(`(?m)^\| flags, six tools \|[^|\n]*\| (\d+) \(([^)]*)\) \|`).FindStringSubmatch(doc)
	fieldsRow := regexp.MustCompile("(?m)^\\| exported `Options`-style fields[^|\n]*\\|[^|\n]*\\| (\\d+) \\|").FindStringSubmatch(doc)
	if flagsRow == nil || fieldsRow == nil {
		t.Fatal("docs/SURFACE.md: no flags or fields row in the Counts table")
	}
	rows := surfaceRow.FindAllStringSubmatch(doc, -1)
	perTool := map[string]int{}
	for _, m := range rows {
		perTool[m[1]]++
	}
	for _, m := range regexp.MustCompile("`(\\w+)` (\\d+)").FindAllStringSubmatch(flagsRow[2], -1) {
		if strconv.Itoa(perTool[m[1]]) != m[2] {
			t.Errorf("docs/SURFACE.md Counts: %s flags for %s, the census counts %d", m[2], m[1], perTool[m[1]])
		}
	}
	if flagsRow[1] != strconv.Itoa(len(rows)) {
		t.Errorf("docs/SURFACE.md Counts: %s flags, the census counts %d", flagsRow[1], len(rows))
	}
	if fieldsRow[1] != strconv.Itoa(fields) {
		t.Errorf("docs/SURFACE.md Counts: %s option fields, the census counts %d", fieldsRow[1], fields)
	}
}
