package bench

import (
	"io"
	"math"
	"strings"
	"testing"

	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/pipeline"
)

// miniSweep runs a reduced harness once for the report tests.
var miniSweep *Results

func sweepFor(t *testing.T) *Results {
	t.Helper()
	if miniSweep == nil {
		res, err := RunExperiments(HarnessOptions{
			Apps:     []string{"xsbench", "complex"},
			Factors:  []int{2},
			Progress: io.Discard,
		})
		if err != nil {
			t.Fatalf("harness: %v", err)
		}
		miniSweep = res
	}
	return miniSweep
}

func TestWriteTable1Format(t *testing.T) {
	res := sweepFor(t)
	var sb strings.Builder
	WriteTable1(&sb, res)
	out := sb.String()
	for _, want := range []string{"Table I", "xsbench", "complex", "±0%", "-s small -m event"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFiguresFormat(t *testing.T) {
	res := sweepFor(t)
	cases := []struct {
		name  string
		write func(io.Writer, *Results)
		wants []string
	}{
		{"fig6a", WriteFig6a, []string{"Figure 6a", "heuristic geomean speedup", "u=2"}},
		{"fig6b", WriteFig6b, []string{"Figure 6b", "heuristic geomean"}},
		{"fig6c", WriteFig6c, []string{"Figure 6c", "heuristic geomean"}},
		{"fig7", WriteFig7, []string{"Figure 7", "unmerge", "uu.u2"}},
		{"fig8", WriteFig8, []string{"Figure 8a", "Figure 8b", "unroll"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			tc.write(&sb, res)
			for _, want := range tc.wants {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("%s missing %q:\n%s", tc.name, want, sb.String())
				}
			}
		})
	}
}

func TestWriteCounterReportFormat(t *testing.T) {
	res := sweepFor(t)
	rec := res.Best("xsbench", pipeline.UU, 2)
	if rec == nil {
		t.Fatalf("no uu record")
	}
	var sb strings.Builder
	WriteCounterReport(&sb, res, "xsbench", rec)
	for _, want := range []string{"inst_misc", "warp_exec_efficiency", "IPC", "speedup"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("counter report missing %q:\n%s", want, sb.String())
		}
	}
}

func TestHarnessUnknownApp(t *testing.T) {
	_, err := RunExperiments(HarnessOptions{Apps: []string{"nonexistent"}})
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("want unknown-application error, got %v", err)
	}
}

func TestResultsAccessors(t *testing.T) {
	res := sweepFor(t)
	if best := res.Best("xsbench", pipeline.UU, 2); best == nil || best.Factor != 2 {
		t.Fatalf("Best wrong: %+v", best)
	}
	if best := res.Best("xsbench", pipeline.UU, 99); best != nil {
		t.Fatalf("Best with bogus factor should be nil")
	}
	var recs []*RunRecord
	for _, rec := range res.PerLoop {
		if rec.App == "xsbench" && rec.Config == pipeline.UU && rec.Factor == 2 {
			recs = append(recs, rec)
		}
	}
	if len(recs) != 1 || recs[0].LoopID != 0 {
		t.Fatalf("per-loop records wrong: %+v", recs)
	}
	if res.LoopCount["xsbench"] < 1 {
		t.Fatalf("loop count missing")
	}
}

func TestGeomean(t *testing.T) {
	if g, ok := geomean([]float64{2, 8}); !ok || g != 4 {
		t.Fatalf("geomean(2,8) = %v, %v, want 4, true", g, ok)
	}
	// Undefined cases: empty input, a zero ratio (a skipped run's 0
	// speedup used to drive the mean to -Inf), and non-finite poison.
	for _, xs := range [][]float64{nil, {}, {1, 0, 2}, {-1}, {math.Inf(1)}, {math.NaN()}} {
		if g, ok := geomean(xs); ok {
			t.Fatalf("geomean(%v) = %v, want undefined", xs, g)
		}
	}
	if s := fmtGeomean(nil); s != "n/a" {
		t.Fatalf("fmtGeomean(nil) = %q, want n/a", s)
	}
	if s := fmtGeomean([]float64{2, 8}); s != "4.000" {
		t.Fatalf("fmtGeomean(2,8) = %q", s)
	}
}

func TestWorkloadMemoryFresh(t *testing.T) {
	// NewMemory must return a freshly initialized image every call
	// (configurations must not see each other's writes).
	b := ByName("rainflow")
	w := b.NewWorkload()
	m1 := w.NewMemory()
	m2 := w.NewMemory()
	if &m1.Data[0] == &m2.Data[0] {
		t.Fatalf("memories share backing store")
	}
	m1.SetF64(0, 0, 12345)
	if m2.F64(0, 0) == 12345 {
		t.Fatalf("memory leak between workload instances")
	}
}

func TestCompareOutputsTolerance(t *testing.T) {
	w := &Workload{Outputs: []Region{{"o", 0, 1, "f64"}}}
	a := newMemF64(1.0)
	b := newMemF64(1.0 + 1e-13)
	if err := CompareOutputs(w, a, b); err != nil {
		t.Fatalf("tiny relative error should pass: %v", err)
	}
	c := newMemF64(1.1)
	if err := CompareOutputs(w, a, c); err == nil {
		t.Fatalf("large error should fail")
	}
	w2 := &Workload{Outputs: []Region{{"o", 0, 1, "i64"}}}
	if err := CompareOutputs(w2, a, a); err != nil {
		t.Fatalf("identical ints should pass: %v", err)
	}
}

func newMemF64(v float64) *interp.Memory {
	m := interp.NewMemory(8)
	m.SetF64(0, 0, v)
	return m
}

// Ablation variant list sanity.
func TestAblationVariantsShape(t *testing.T) {
	vs := AblationVariants(0, 2)
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name] = true
	}
	for _, want := range []string{"baseline", "uu", "uu/direct-successor", "uu/no-equality-prop", "uu/no-load-elim", "uu/no-ifconvert"} {
		if !names[want] {
			t.Errorf("missing variant %q", want)
		}
	}
	_ = gpusim.V100()
}
