package harden_test

import (
	"fmt"
	"testing"

	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// containedCompiles runs every contained, verified compile of the corpus —
// the 16 suite kernels and, when seeds > 0, that many generated ones, each
// under the six golden configurations — calling begin before a compile and
// end with its result. The tests below watch the pipeline's own guard through
// harden.SetSnapshotHook while this runs.
func containedCompiles(t *testing.T, seeds int64, begin func(what string), end func(what string, f *ir.Function, st *pipeline.Stats)) {
	t.Helper()
	type source struct {
		name string
		make func() *ir.Function
	}
	var sources []source
	for _, b := range bench.Suite {
		sources = append(sources, source{b.Name, func() *ir.Function {
			f, err := b.CompileKernel()
			if err != nil {
				t.Fatal(err)
			}
			return f
		}})
	}
	for seed := int64(1); seed <= seeds; seed++ {
		sources = append(sources, source{fmt.Sprintf("seed %d", seed), func() *ir.Function { return harden.Generate(seed).F }})
	}
	for _, src := range sources {
		for _, opts := range []pipeline.Options{
			{Config: pipeline.Baseline},
			{Config: pipeline.UnrollOnly, LoopID: 0, Factor: 2},
			{Config: pipeline.UnmergeOnly, LoopID: 0},
			{Config: pipeline.UU, LoopID: 0, Factor: 2},
			{Config: pipeline.UUHeuristic},
			{Config: pipeline.UUHeuristic, Unmerge: core.Options{Selective: true}},
		} {
			opts.Contain, opts.VerifyEachPass = true, true
			what := src.name + "/" + string(opts.Config)
			f := src.make()
			begin(what)
			// A configuration that does not apply to loop 0 (or a kernel
			// without one) reports that after a complete compilation.
			st, _ := pipeline.Optimize(f, opts)
			if len(st.Failures) != 0 {
				t.Fatalf("%s: healthy compile recorded failures: %+v", what, st.Failures)
			}
			end(what, f, st)
		}
	}
}

// TestGuardSnapshotAlwaysCurrent: before every pass invocation of a
// contained suite compile, the snapshot a failure would restore has the
// function's fingerprint and its text — whether the guard cloned it for
// this invocation or kept it from an earlier one. It also holds the guard
// to what the reuse is for: a compile clones at most once per invocation
// that changed the IR, plus once at the start.
func TestGuardSnapshotAlwaysCurrent(t *testing.T) {
	var what string
	invocations, clones := 0, 0
	defer harden.SetSnapshotHook(func(f, snap *ir.Function, cloned bool) {
		invocations++
		if cloned {
			clones++
		}
		if got, want := ir.Fingerprint(snap), ir.Fingerprint(f); got != want {
			t.Errorf("%s invocation %d: snapshot hashes %#x, the function %#x", what, invocations, got, want)
		}
		if !cloned && snap.String() != f.String() {
			t.Errorf("%s invocation %d: reused snapshot is not the function's current text", what, invocations)
		}
	})()
	totalInvocations, totalClones, totalChanged := 0, 0, 0
	containedCompiles(t, 0,
		func(w string) { what, invocations, clones = w, 0, 0 },
		func(what string, f *ir.Function, st *pipeline.Stats) {
			changed := 0
			for _, pt := range st.PassTimes {
				if pt.Changed {
					changed++
				}
			}
			if clones > changed+1 {
				t.Errorf("%s: %d snapshots for %d invocations of which %d changed the IR; want at most changed+1",
					what, clones, invocations, changed)
			}
			totalInvocations += invocations
			totalClones += clones
			totalChanged += changed
		})
	if totalInvocations < 3000 || totalClones*2 > totalInvocations {
		t.Fatalf("%d invocations, %d snapshots: the guard no longer skips the unchanged ones", totalInvocations, totalClones)
	}
	t.Logf("%d contained invocations, %d changed the IR, %d snapshots taken", totalInvocations, totalChanged, totalClones)
}

// TestUnchangedMeansUntouched holds every pass of the pipeline, the loop
// transformation included, to its declaration: an invocation recorded with
// Changed == false leaves the function's fingerprint and text exactly as it
// found them. The loop passes normalise a loop (preheader, LCSSA) before
// they decide whether to transform it; reporting only "transformed" made
// unmerge-loop-pass claim Unchanged over an edited function on generated
// kernels 13, 26, 28 and 42.
func TestUnchangedMeansUntouched(t *testing.T) {
	type state struct {
		sum  uint64
		text string
	}
	var before []state // the function as each invocation found it
	defer harden.SetSnapshotHook(func(f, _ *ir.Function, _ bool) {
		before = append(before, state{ir.Fingerprint(f), f.String()})
	})()
	invocations, unchanged := 0, 0
	containedCompiles(t, 200,
		func(string) { before = before[:0] },
		func(what string, f *ir.Function, st *pipeline.Stats) {
			after := append(before[1:], state{ir.Fingerprint(f), f.String()})
			i := 0
			for _, pt := range st.PassTimes {
				if pt.Name == "verify" {
					continue
				}
				if i >= len(before) {
					t.Fatalf("%s: %d pass records for %d guarded invocations", what, i+1, len(before))
				}
				invocations++
				if !pt.Changed {
					unchanged++
					if before[i].sum != after[i].sum || before[i].text != after[i].text {
						t.Errorf("%s: %s (%s) reported Unchanged over an edited function", what, pt.Name, pt.Phase)
					}
				}
				i++
			}
		})
	if invocations < 10000 || unchanged < invocations/2 {
		t.Fatalf("%d invocations, %d unchanged: the corpus no longer exercises the declarations", invocations, unchanged)
	}
	t.Logf("%d invocations, %d declared Unchanged, all untouched", invocations, unchanged)
}
