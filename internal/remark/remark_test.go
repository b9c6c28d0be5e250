package remark

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilCollectorIsDisabledAndSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.Emit(Remark{Kind: Passed, Pass: "x", Name: "y"}) // must not panic
	if c.Remarks() != nil {
		t.Fatal("nil collector returned remarks")
	}
}

// TestDisabledSinkZeroAlloc pins the disabled-path contract: a guarded
// emission site (Enabled check, no remark built) performs zero
// allocations. This is the structural half of the "disabled sink costs
// nothing measurable" bound; BenchmarkPipelineCompile in internal/bench
// is the wall-clock half.
func TestDisabledSinkZeroAlloc(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Enabled() {
			c.Emit(Remark{Kind: Passed, Pass: "p", Name: "n", Args: []Arg{Int("k", 1)}})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled emission allocated %.1f times per run", allocs)
	}
	var tr *Trace
	allocs = testing.AllocsPerRun(1000, func() {
		tr.Complete(0, "x", "y", time.Time{}, 0, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled trace allocated %.1f times per run", allocs)
	}
}

func TestCollectorOrderAndYAML(t *testing.T) {
	c := &Collector{}
	c.Emit(Remark{Kind: Passed, Pass: "loop-unroll", Name: "Unrolled", Function: "k", Block: "loop.header",
		Args: []Arg{Int("Factor", 4), Int("TripCount", 16)}})
	c.Emit(Remark{Kind: Missed, Pass: "uu", Name: "ConvergentBailout", Function: "k",
		Args: []Arg{Int("Loop", 2)}})
	c.Emit(Remark{Kind: Analysis, Pass: "uu-heuristic", Name: "LoopCost", Function: "k",
		Args: []Arg{Int("Paths", 3), Int("Size", 40), Int("Estimated", 812), Str("Selected", "true")}})
	if len(c.Remarks()) != 3 {
		t.Fatalf("got %d remarks", len(c.Remarks()))
	}

	var b bytes.Buffer
	if err := WriteYAML(&b, c.Remarks(), nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `--- !Passed
Pass:     loop-unroll
Name:     Unrolled
Function: k
Block:    loop.header
Args:
  - Factor: 4
  - TripCount: 16
...
--- !Missed
Pass:     uu
Name:     ConvergentBailout
Function: k
Args:
  - Loop: 2
...
--- !Analysis
Pass:     uu-heuristic
Name:     LoopCost
Function: k
Args:
  - Paths: 3
  - Size: 40
  - Estimated: 812
  - Selected: true
...
`
	if out != want {
		t.Errorf("YAML mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}

	// Filtered dump keeps only the requested kinds.
	b.Reset()
	kinds, err := ParseKinds("missed")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteYAML(&b, c.Remarks(), kinds); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); !strings.Contains(got, "!Missed") || strings.Contains(got, "!Passed") {
		t.Errorf("filtered dump wrong:\n%s", got)
	}
}

func TestParseKinds(t *testing.T) {
	all, err := ParseKinds("all")
	if err != nil || !all[Passed] || !all[Missed] || !all[Analysis] {
		t.Fatalf("all: %v %v", all, err)
	}
	pm, err := ParseKinds("passed,missed")
	if err != nil || !pm[Passed] || !pm[Missed] || pm[Analysis] {
		t.Fatalf("passed,missed: %v %v", pm, err)
	}
	if _, err := ParseKinds("bogus"); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestYAMLQuoting(t *testing.T) {
	var b bytes.Buffer
	err := WriteYAML(&b, []Remark{{Kind: Missed, Pass: "p", Name: "n", Function: "f",
		Args: []Arg{Str("Reason", "loop #1: it's \"odd\"")}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `'loop #1: it''s "odd"'`) {
		t.Errorf("quoting wrong:\n%s", b.String())
	}
}

func TestTraceJSON(t *testing.T) {
	tr := NewTrace()
	start := time.Now()
	tr.Complete(3, "gvn", "pass", start, 1500*time.Microsecond, map[string]any{"changed": true})
	tr.Complete(0, "sim:k", "gpusim", start, time.Millisecond, map[string]any{"gld_transactions": 42})

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	// The chrome://tracing loader requires name/ph/ts/pid/tid on every
	// event; spot-check the complete span carries its duration and lane.
	ev := doc.TraceEvents[0]
	if ev.Name != "gvn" || ev.Ph != "X" || ev.TS == nil || ev.TID != 3 || ev.PID != 1 {
		t.Errorf("bad span event: %+v", ev)
	}
	if doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Args["gld_transactions"] != 42.0 {
		t.Errorf("bad span args: %+v", doc.TraceEvents[1])
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	// An empty (or nil) trace still writes a loadable document.
	b.Reset()
	var nilTr *Trace
	if err := nilTr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) || !strings.Contains(b.String(), "traceEvents") {
		t.Errorf("nil trace output invalid: %s", b.String())
	}
}
