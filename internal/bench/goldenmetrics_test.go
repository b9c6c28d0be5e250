package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

// updateGoldenMetrics regenerates the golden metrics files instead of
// comparing:
//
//	go test ./internal/bench -run TestGoldenMetrics -update-golden-metrics
//
// The files under testdata/goldenmetrics were captured from the
// pre-rewrite (sequential, map-based) simulator; the pre-decoded,
// allocation-free simulator must reproduce every counter byte for byte.
// Only regenerate them for an intentional, reviewed change to the
// simulation model.
var updateGoldenMetrics = flag.Bool("update-golden-metrics", false, "rewrite testdata/goldenmetrics from the current simulator")

func metricsName(app string, opts pipeline.Options) string {
	return strings.TrimSuffix(goldenName(app, opts), ".vptx") + ".metrics"
}

// formatMetrics renders every Metrics field in a fixed order so the golden
// comparison covers the complete counter set.
func formatMetrics(m *gpusim.Metrics) string {
	var sb strings.Builder
	p := func(k string, v int64) { fmt.Fprintf(&sb, "%-18s %d\n", k, v) }
	p("cycles", m.Cycles)
	p("warp_instrs", m.WarpInstrs)
	p("thread_instrs", m.ThreadInstrs)
	p("class_compute", m.ClassThread[0])
	p("class_misc", m.ClassThread[1])
	p("class_control", m.ClassThread[2])
	p("class_memory", m.ClassThread[3])
	p("class_special", m.ClassThread[4])
	p("active_sum", m.ActiveSum)
	p("gld_transactions", m.GldTransactions)
	p("gst_transactions", m.GstTransactions)
	p("gld_bytes", m.GldBytes)
	p("gst_bytes", m.GstBytes)
	p("stall_inst_fetch", m.StallInstFetch)
	p("dep_stall_cycles", m.DepStallCycles)
	p("warps", m.Warps)
	return sb.String()
}

// goldenSimulate produces the golden content for one (app, config) cell:
// the full metrics dump, or a SKIP line holding the pipeline error.
func goldenSimulate(b *Benchmark, opts pipeline.Options) string {
	cr, err := Compile(b, opts)
	if err != nil {
		return fmt.Sprintf("SKIP: %v\n", err)
	}
	w := b.NewWorkload()
	m, err := Execute(cr, w, gpusim.V100(), nil)
	if err != nil {
		return fmt.Sprintf("ERROR: %v\n", err)
	}
	return formatMetrics(m)
}

func TestGoldenMetrics(t *testing.T) {
	dir := filepath.Join("testdata", "goldenmetrics")
	if *updateGoldenMetrics {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range Suite {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, opts := range goldenCases() {
				name := metricsName(b.Name, opts)
				got := goldenSimulate(b, opts)
				path := filepath.Join(dir, name)
				if *updateGoldenMetrics {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden %s (run with -update-golden-metrics to capture): %v", name, err)
				}
				if got != string(want) {
					t.Errorf("%s: metrics differ from golden %s:\ngot:\n%s\nwant:\n%s",
						b.Name, name, got, want)
				}
			}
		})
	}
}
