// Package clitest is what the command-line tools' tests share: a table
// runner that holds a tool's run function to golden output, and the census
// check that holds a tool's flag set to docs/SURFACE.md.
package clitest

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from this run")

// Run is the shape of every tool's entry point below main.
type Run func(args []string, stdout, stderr io.Writer) int

// Case is one invocation of a tool, held to testdata/<Name>.golden: the exit
// code, stdout and stderr.
type Case struct {
	Name string
	Args []string
	// Mask, when set, rewrites the rendered outcome before it is compared:
	// wall-clock figures and temporary paths have no golden value.
	Mask func(string) string
}

// Golden runs every case and compares its outcome with the golden file
// (-update rewrites it).
func Golden(t *testing.T, run Run, cases []Case) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.Args, &stdout, &stderr)
			got := fmt.Sprintf("exit %d\n--- stdout ---\n%s--- stderr ---\n%s", code, stdout.String(), stderr.String())
			if c.Mask != nil {
				got = c.Mask(got)
			}
			path := filepath.Join("testdata", c.Name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run the test with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("outcome differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// Replace returns a Mask that rewrites every match of each pattern; pairs
// alternates pattern, replacement.
func Replace(pairs ...string) func(string) string {
	patterns := make([]*regexp.Regexp, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		patterns = append(patterns, regexp.MustCompile(pairs[i]))
	}
	return func(s string) string {
		for i, re := range patterns {
			s = re.ReplaceAllString(s, pairs[2*i+1])
		}
		return s
	}
}

// TraceSpans reads a Chrome trace_event file and returns the span
// categories and the lanes (tid) it holds.
func TraceSpans(t *testing.T, path string) (cats map[string]bool, lanes map[int]bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string
			TID int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	cats, lanes = map[string]bool{}, map[int]bool{}
	for _, e := range doc.TraceEvents {
		cats[e.Cat], lanes[e.TID] = true, true
	}
	return cats, lanes
}

// surfaceRow matches a flag row of docs/SURFACE.md: | `tool -flag` | exerciser |
var surfaceRow = regexp.MustCompile("(?m)^\\| `(\\w+) -([\\w-]+)` \\|([^|\n]*)\\|")

// Census checks a tool's flag set against docs/SURFACE.md (read from the
// tool's directory, cmd/<tool>): every flag the set defines has a row with a
// non-empty exerciser, and every row of the tool names a flag the set
// defines.
func Census(t *testing.T, tool string, fs *flag.FlagSet) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "SURFACE.md"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	CensusNames(t, string(doc), tool, names)
}

// CensusNames is Census over a plain list of the tool's flag names.
func CensusNames(t *testing.T, doc, tool string, names []string) {
	rows := map[string]string{}
	for _, m := range surfaceRow.FindAllStringSubmatch(doc, -1) {
		if m[1] == tool {
			rows[m[2]] = strings.TrimSpace(m[3])
		}
	}
	for _, name := range names {
		switch exerciser, ok := rows[name]; {
		case !ok:
			t.Errorf("%s -%s has no row in docs/SURFACE.md", tool, name)
		case exerciser == "":
			t.Errorf("%s -%s: the docs/SURFACE.md row names no exerciser", tool, name)
		}
		delete(rows, name)
	}
	for name := range rows {
		t.Errorf("docs/SURFACE.md has a row for %s -%s, which the tool does not define", tool, name)
	}
}
