package clitest

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSurfaceCensus holds docs/SURFACE.md to the tree: every test it names
// is a test function of some _test.go file, every golden case it names for
// a tool's TestGolden is a file under that tool's testdata, and every
// repository path it names exists. Each run-function tool's own
// TestSurfaceCensus holds its flag rows to its flag set; uud defines its
// flags on the global set inside main, so its rows are held here to the flag
// definitions in its source.
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
}
