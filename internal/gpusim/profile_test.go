package gpusim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfCounterNamesDocumented is the metrics-documentation lint: every
// per-PC counter name the profiler can emit must have a row in
// docs/METRICS.md, so reports never show a counter the documentation
// doesn't explain. CI runs this as a dedicated step.
func TestProfCounterNamesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatalf("reading metrics documentation: %v", err)
	}
	for c := ProfCounter(0); c < ProfNumCounters; c++ {
		name := c.String()
		if name == "" || name == "?" {
			t.Errorf("ProfCounter(%d) has no name", int(c))
			continue
		}
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("counter %q is not documented in docs/METRICS.md", name)
		}
	}
}
