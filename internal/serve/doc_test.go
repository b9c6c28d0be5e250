package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeCounterNamesDocumented is the metrics-documentation lint for
// the daemon, mirroring gpusim's TestProfCounterNamesDocumented: every
// counter /stats can emit must have a row in docs/METRICS.md, so
// operators never see a counter the documentation doesn't explain. CI
// runs this as a dedicated step.
func TestServeCounterNamesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatalf("reading metrics documentation: %v", err)
	}
	for _, name := range counterNames {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("counter %q is not documented in docs/METRICS.md", name)
		}
	}
	// And every counter has a name of its own: /stats keys its snapshot
	// by name, so two counters sharing one would lose a count.
	if snap := (&counters{}).snapshot(); len(snap) != int(numCounters) {
		t.Fatalf("snapshot emits %d counters, there are %d", len(snap), numCounters)
	}

	// The same lint covers the /metrics histogram and gauge families and
	// the phase label values.
	for _, name := range histogramNames {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("histogram %q is not documented in docs/METRICS.md", name)
		}
	}
	for _, name := range gaugeNames {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("gauge %q is not documented in docs/METRICS.md", name)
		}
	}
	for _, name := range PhaseNames {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("phase %q is not documented in docs/METRICS.md", name)
		}
	}
}

// TestMetricsExpositionMatchesNameLists pins that every family in
// histogramNames and gaugeNames (plus every counter) actually appears in
// a live /metrics scrape — the lists and the registry can't drift.
func TestMetricsExpositionMatchesNameLists(t *testing.T) {
	s := New(Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	var sb strings.Builder
	if err := s.tel.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	scrape := sb.String()
	var all []string
	all = append(all, counterNames[:]...)
	all = append(all, histogramNames...)
	all = append(all, gaugeNames...)
	for _, name := range all {
		if !strings.Contains(scrape, "# TYPE "+name+" ") {
			t.Errorf("/metrics scrape missing family %q", name)
		}
	}
	for _, name := range PhaseNames {
		if !strings.Contains(scrape, `phase="`+name+`"`) {
			t.Errorf("/metrics scrape missing phase series %q", name)
		}
	}
}
