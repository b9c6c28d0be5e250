package bench

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/remark"
)

// remarkCorpusApps are the in-depth-analysis applications the golden remark
// corpus covers — the same four kernels the paper's Section V dissects.
var remarkCorpusApps = []string{"xsbench", "rainflow", "complex", "bezier-surface"}

// goldenRemarks produces the golden remark stream for one (app, config)
// cell: the YAML document stream, preceded by a SKIP line when the pipeline
// refuses the configuration (remarks emitted before the refusal are still
// part of the contract).
func goldenRemarks(b *Benchmark, opts pipeline.Options) string {
	rc := remark.NewCollector()
	opts.Remarks = rc
	var sb strings.Builder
	if _, err := Compile(b, opts); err != nil {
		sb.WriteString("SKIP: " + err.Error() + "\n")
	}
	if err := remark.WriteYAML(&sb, rc.Remarks(), nil); err != nil {
		panic(err)
	}
	return sb.String()
}

// TestGoldenRemarks pins the optimization-remark stream of the four
// Section V kernels across all five pipeline configurations. Remarks carry
// no timestamps or addresses, so the stream must be byte-identical run to
// run; a diff means a pass changed what it reports (regenerate with
// -update-golden after review) or lost determinism (a bug).
func TestGoldenRemarks(t *testing.T) {
	dir := filepath.Join("testdata", "goldenremarks")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range remarkCorpusApps {
		b := ByName(app)
		if b == nil {
			t.Fatalf("unknown corpus app %q", app)
		}
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			for _, opts := range goldenCases() {
				name := strings.TrimSuffix(goldenName(b.Name, opts), ".vptx") + ".yaml"
				got := goldenRemarks(b, opts)
				path := filepath.Join(dir, name)
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden %s (run with -update-golden to capture): %v", name, err)
				}
				if got != string(want) {
					t.Errorf("%s: remark stream differs from golden %s (%d vs %d bytes)",
						b.Name, name, len(got), len(want))
				}
			}
		})
	}
}

// TestRemarksWorkerInvariance is the harness-level determinism contract:
// the assembled campaign remark stream — compile-time remarks plus the
// gpusim SimMetrics remark per run — must be byte-identical whether the
// campaign ran on 1 worker or on 8.
func TestRemarksWorkerInvariance(t *testing.T) {
	run := func(workers int) string {
		res, err := RunExperiments(HarnessOptions{
			Apps:    []string{"complex", "bezier-surface"},
			Factors: []int{2},
			Workers: workers,
			Remarks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := remark.WriteYAML(&sb, res.Remarks, nil); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq := run(1)
	par := run(8)
	if seq == "" || !strings.Contains(seq, "SimMetrics") {
		t.Fatalf("campaign produced no simulation remarks:\n%.400s", seq)
	}
	if seq != par {
		t.Errorf("remark stream depends on worker count (%d vs %d bytes)", len(seq), len(par))
	}
}

// TestTraceJSONWellFormed drives a traced compile+simulate and checks the
// Chrome trace contract end to end: events from every layer (pipeline
// spans, per-pass spans, codegen, gpusim) on the caller's lane, in valid
// trace_event JSON (the remark package's own tests cover the encoding; this
// covers the plumbing).
func TestTraceJSONWellFormed(t *testing.T) {
	tr := remark.NewTrace()
	b := ByName("complex")
	opts := pipeline.Options{Config: pipeline.UUHeuristic, Trace: tr, TraceTID: 3}
	cr, err := Compile(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := b.NewWorkload()
	if _, err := ExecuteCtx(context.Background(), cr, w, gpusim.V100(), nil, tr, 3, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("no trace events recorded")
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"traceEvents"`, `"displayTimeUnit":"ms"`,
		`"cat":"pipeline"`, `"cat":"pass"`, `"cat":"codegen"`, `"cat":"gpusim"`,
		`"ph":"X"`, `"ph":"C"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
}
