package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/profile"
)

// goldenProfile produces the golden hotspot content for one (app, config)
// cell: the hotspot tables, the heuristic prediction join when the run made
// decisions, and the folded stacks — or a SKIP line when the pipeline
// refuses the configuration.
func goldenProfile(b *Benchmark, opts pipeline.Options) string {
	rec, err := Run(context.Background(), Job{Name: b.Name, Kernel: b.CompileKernel, Workload: b.NewWorkload(),
		Options: opts, Device: gpusim.V100(), Profile: true})
	if err != nil {
		if rec.Program == nil {
			return fmt.Sprintf("SKIP: %v\n", err)
		}
		return fmt.Sprintf("ERROR: %v\n", err)
	}
	rep := profile.Build(rec.Program, rec.Profile)
	var sb strings.Builder
	if err := profile.WriteHotspots(&sb, rep); err != nil {
		panic(err)
	}
	if len(rec.Stats.Decisions) > 0 {
		sb.WriteString("\n")
		if err := profile.WritePrediction(&sb, rep, rec.Stats.Decisions, rec.Stats.Skips, core.DefaultHeuristicParams().C); err != nil {
			panic(err)
		}
	}
	sb.WriteString("\n")
	if err := profile.WriteFolded(&sb, rep); err != nil {
		panic(err)
	}
	return sb.String()
}

// TestGoldenProfiles pins the hotspot profiles of the four Section V
// kernels across all five pipeline configurations. The per-PC counters are
// integers (stall cycles in fixed point), so the rendered tables must be
// byte-identical run to run; a diff means the simulator's cost attribution
// changed (regenerate with -update-golden after review).
func TestGoldenProfiles(t *testing.T) {
	dir := filepath.Join("testdata", "goldenprofiles")
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
				name := strings.TrimSuffix(goldenName(b.Name, opts), ".vptx") + ".profile"
				got := goldenProfile(b, opts)
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
					t.Errorf("%s: profile differs from golden %s (%d vs %d bytes)",
						b.Name, name, len(got), len(want))
				}
			}
		})
	}
}

// TestProfileWorkerInvariance is the profiling determinism contract at the
// harness level: every rendered artifact — the hotspot report, the folded
// stacks, and the binary pprof protobuf — must be byte-identical whether
// the campaign ran on 1 worker or on 8. This is what allows profiles to be
// compared across machines and pinned as goldens.
func TestProfileWorkerInvariance(t *testing.T) {
	run := func(workers int) string {
		res, err := RunExperiments(HarnessOptions{
			Apps:    []string{"complex", "bezier-surface"},
			Factors: []int{2},
			Workers: workers,
			Profile: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteProfileReport(&buf, res); err != nil {
			t.Fatal(err)
		}
		for _, app := range []string{"bezier-surface", "complex"} {
			rec := res.Heuristic[app]
			if rec == nil || rec.Profile == nil {
				t.Fatalf("no heuristic profile for %s", app)
			}
			rep := profile.Build(rec.Program, rec.Profile)
			if err := profile.WriteFolded(&buf, rep); err != nil {
				t.Fatal(err)
			}
			if err := profile.WritePprof(&buf, rep); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	seq := run(1)
	par := run(8)
	if !strings.Contains(seq, "kernel bezier") {
		t.Fatalf("campaign produced no profile report:\n%.400s", seq)
	}
	if seq != par {
		t.Errorf("profile artifacts depend on worker count (%d vs %d bytes)", len(seq), len(par))
	}
}
