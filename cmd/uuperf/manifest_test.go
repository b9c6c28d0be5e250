package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, uuperf %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, uuperf %s: %s", i, got, w.Name, w.Why)
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, uuperf %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, uuperf %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != d.Bound {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd, true)
	same("per-layer", m.PerLayer, perLayer, false)
	if !reflect.DeepEqual(m.Paths, []string{"cmd/uuperf"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", m.RunSeconds, defaultSeconds)
	}
}

// The contract's limits on names, units and bounds.
func TestDeclaredNamesAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not well formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	largest := 0.0
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
		largest = max(largest, d.Bound)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must be declared in seconds, lower is better, with the largest bound: %+v", endToEnd[0])
	}
}

// A report prints exactly the declared names.
func TestReportPrintsDeclaredNames(t *testing.T) {
	o := &outcome{attempted: 200, section: section{wallS: 2, cpuS: 3, allocMB: 4, setupS: 1}, speedup: 1.05, growth: 1.5}
	for _, latency := range ramp(200) {
		o.sample(latency)
	}
	clocks, err := o.timingValues()
	if err != nil {
		t.Fatal(err)
	}
	if clocks["op_ms_p50"] != 100 || clocks["op_ms_p90"] != 180 || clocks["ops_per_s"] != 100 {
		t.Errorf("clocks %v", clocks)
	}
	if _, err := newReport(o, timing, clocks); err != nil {
		t.Error(err)
	}
	values := o.endToEndValues()
	r, err := newReport(o, endToEnd, values)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(endToEnd) || !r.Correct || r.Attempted != 200 {
		t.Errorf("report %+v", r)
	}
	if _, err := newReport(o, perLayer, values); err == nil {
		t.Error("a report of undeclared values was accepted")
	}
	delete(values, "alloc_mb")
	if _, err := newReport(o, endToEnd, values); err == nil {
		t.Error("a report missing a declared metric was accepted")
	}
}

// The clocks lead the per-layer list, and none of them has a bound wider
// than the issue's tenth: they have none.
func TestTimingIsPerLayer(t *testing.T) {
	for i, d := range timing {
		if perLayer[i] != d || d.Bound != 0 {
			t.Errorf("per-layer metric %d is %+v, want %+v without a bound", i, perLayer[i], d)
		}
	}
	for _, d := range endToEnd[1:] {
		if d.Bound > timingBound {
			t.Errorf("metric %s: bound %v is wider than %v", d.Name, d.Bound, timingBound)
		}
	}
}

func TestScaled(t *testing.T) {
	for _, c := range []struct{ seconds, n, floor, want int }{
		{defaultSeconds, simPasses, 8, simPasses},
		{defaultSeconds, coldPasses, 2, coldPasses},
		{defaultSeconds, hotRequests, 4000, hotRequests},
		{10, 16, 8, 8},
		{1, 40000, 4000, 4000},
		{60, 3, 2, 9},
	} {
		if got := (runConfig{seconds: c.seconds}).scaled(c.n, c.floor); got != c.want {
			t.Errorf("%d sized for %d s, at %d s: %d, want %d", c.n, defaultSeconds, c.seconds, got, c.want)
		}
	}
}
