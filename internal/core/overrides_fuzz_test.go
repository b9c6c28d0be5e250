package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// FuzzParseOverrides holds ParseOverrides, the decoder of the untrusted
// heuristic.overrides request field, to its contract on any input: it never
// panics, and every set it accepts re-parses to an equal set from each
// line's LoopOverride.String (whose "," between directives the input
// syntax spells "+").
func FuzzParseOverrides(f *testing.F) {
	for _, c := range goodOverrides {
		f.Add(c.in)
	}
	for _, spec := range badOverrides {
		f.Add(spec)
	}
	// The override sets the PGO goldens print.
	for _, path := range []string{"cmd/uubench/testdata/pgo-seed.golden", "results/pgo.txt"} {
		data, err := os.ReadFile(filepath.Join("..", "..", path))
		if err != nil {
			f.Fatal(err)
		}
		for _, spec := range regexp.MustCompile(`L[0-9]+:[a-z0-9=+,]+`).FindAllString(string(data), -1) {
			f.Add(spec)
		}
	}
	f.Add(" L+07:cap=+3 ,L2147483647:force+cap=8")

	f.Fuzz(func(t *testing.T, spec string) {
		ov, err := ParseOverrides(spec)
		if err != nil {
			return
		}
		items := make([]string, 0, len(ov))
		for line, o := range ov {
			items = append(items, fmt.Sprintf("L%d:%s", line, strings.ReplaceAll(o.String(), ",", "+")))
		}
		again, err := ParseOverrides(strings.Join(items, ","))
		if err != nil {
			t.Fatalf("ParseOverrides(%q) = %s, which does not parse back: %v", spec, OverridesString(ov), err)
		}
		if !reflect.DeepEqual(again, ov) {
			t.Fatalf("ParseOverrides(%q) = %v, but its rendering %q parses to %v", spec, ov, items, again)
		}
	})
}
