package gpusim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"uu/internal/codegen"
	"uu/internal/harden"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// policyDivSrc has a data-dependent branch nested in a divergent-trip
// loop: the regime where the three backends schedule genuinely different
// interleavings while computing the same values.
const policyDivSrc = `
kernel d(double* restrict x, long n) {
  long i = (long)global_id();
  if (i < n) {
    double v = x[i];
    long m = i % 5;
    for (long j = 0; j < m; j = j + 1) {
      if ((i + j) % 3 == 0) {
        v = v * 1.5 + 1.0;
      } else {
        v = v - 0.25;
      }
    }
    x[i] = v;
  }
}
`

// policyDevices are the device configurations the policy tests sweep:
// every backend on identical V100 hardware (isolating the divergence
// axis), plus the native 16-wide Vortex device (exercising narrow-warp
// masking).
func policyDevices() []struct {
	name string
	cfg  DeviceConfig
} {
	withPolicy := func(p PolicyKind) DeviceConfig {
		cfg := V100()
		cfg.Policy = p
		return cfg
	}
	return []struct {
		name string
		cfg  DeviceConfig
	}{
		{"ipdom", withPolicy(PolicyIPDOM)},
		{"minsppc", withPolicy(PolicyMinSPPC)},
		{"vortex", withPolicy(PolicyVortex)},
		{"vortex_native", Vortex()},
	}
}

// TestCrossPolicyOutputAgreement checks that all backends compute the same
// final memory: divergence management changes scheduling and cost, never
// results.
func TestCrossPolicyOutputAgreement(t *testing.T) {
	p := build(t, policyDivSrc, pipeline.Options{Config: pipeline.Baseline})
	launch := Launch{GridDim: 3, BlockDim: 40}
	n := int64(launch.Threads())
	args := []interp.Value{interp.IntVal(0), interp.IntVal(n)}

	var refMem []byte
	var refName string
	for _, dev := range policyDevices() {
		mem := interp.NewMemory(1 << 14)
		for i := int64(0); i < n; i++ {
			mem.SetF64(0, i, float64(i)*0.25)
		}
		if _, err := Run(p, args, mem, launch, dev.cfg); err != nil {
			t.Fatalf("%s: %v", dev.name, err)
		}
		if refMem == nil {
			refMem, refName = mem.Data, dev.name
			continue
		}
		if !bytes.Equal(mem.Data, refMem) {
			t.Errorf("%s: final memory differs from %s", dev.name, refName)
		}
	}
}

// TestPolicyZeroAllocs extends the steady-state allocation contract to
// every backend: after a warm-up warp grows the engine's buffers, further
// warps must not allocate, with or without profiling.
func TestPolicyZeroAllocs(t *testing.T) {
	p := build(t, policyDivSrc, pipeline.Options{Config: pipeline.Baseline})
	for pol := PolicyKind(0); pol < numPolicies; pol++ {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := V100()
			cfg.Policy = pol
			mem := interp.NewMemory(1 << 16)
			launch := Launch{GridDim: 4, BlockDim: 64}
			args := []interp.Value{interp.IntVal(0), interp.IntVal(int64(launch.Threads()))}

			dp, err := decoded(p)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			w := newWarpSim(dp, cfg, mem)
			w.fetchMode = fetchBitset
			w.touched = make([]uint64, bitWords(dp.numLines(cfg.ICacheLineInstrs)))

			var m Metrics
			if err := w.runThreaded(args, launch, 0, cfg.WarpSize, &m); err != nil {
				t.Fatalf("warm-up run: %v", err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := w.runThreaded(args, launch, cfg.WarpSize, cfg.WarpSize, &m); err != nil {
					t.Fatalf("run: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state warp loop allocates: %v allocs/run, want 0", allocs)
			}

			w.prof = newProfileN(dp.name, len(dp.ops))
			if err := w.runThreaded(args, launch, 0, cfg.WarpSize, &m); err != nil {
				t.Fatalf("profiled warm-up run: %v", err)
			}
			allocs = testing.AllocsPerRun(10, func() {
				if err := w.runThreaded(args, launch, cfg.WarpSize, cfg.WarpSize, &m); err != nil {
					t.Fatalf("profiled run: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("profiled warp loop allocates: %v allocs/run, want 0", allocs)
			}
		})
	}
}

// TestMinSPPCBarrierWaits pins the policy-specific counter semantics:
// divergent code produces barrier_wait_events under MinSP-PC (groups
// arriving at a convergence barrier wait for their siblings) and none
// under the stack policies, whose joins are pops.
func TestMinSPPCBarrierWaits(t *testing.T) {
	p := build(t, policyDivSrc, pipeline.Options{Config: pipeline.Baseline})
	launch := Launch{GridDim: 2, BlockDim: 64}
	n := int64(launch.Threads())
	args := []interp.Value{interp.IntVal(0), interp.IntVal(n)}

	waits := func(pol PolicyKind) int64 {
		cfg := V100()
		cfg.Policy = pol
		mem := interp.NewMemory(1 << 14)
		prof := NewProfile(p)
		if _, err := RunCtx(context.Background(), p, args, mem, launch, cfg, prof); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		var sum int64
		for _, v := range prof.Counters[ProfBarrierWaits] {
			sum += v
		}
		return sum
	}
	if got := waits(PolicyMinSPPC); got == 0 {
		t.Errorf("minsppc: expected barrier_wait_events > 0 on divergent code, got 0")
	}
	for _, pol := range []PolicyKind{PolicyIPDOM, PolicyVortex} {
		if got := waits(pol); got != 0 {
			t.Errorf("%s: expected no barrier_wait_events, got %d", pol, got)
		}
	}
}

// TestPoliciesAreDistinct guards against one backend silently degenerating
// into another. MinSP-PC's interleaved min-PC schedule differs from the
// stack's depth-first order on any divergent code. Vortex coincides with
// IPDOM on structured flow by design — the models only separate where
// IPDOM's opportunistic back-edge merging fires, i.e. on unstructured
// (unmerged) control flow — so its comparison runs on the unmerged build.
func TestPoliciesAreDistinct(t *testing.T) {
	launch := Launch{GridDim: 2, BlockDim: 64}
	n := int64(launch.Threads())
	args := []interp.Value{interp.IntVal(0), interp.IntVal(n)}

	run := func(p *codegen.Program, pol PolicyKind) *Profile {
		cfg := V100()
		cfg.Policy = pol
		cfg.ICacheLines = 2 // tiny LRU icache: fetch order becomes observable
		mem := interp.NewMemory(1 << 14)
		prof := NewProfile(p)
		if _, err := RunCtx(context.Background(), p, args, mem, launch, cfg, prof); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		return prof
	}

	base := build(t, policyDivSrc, pipeline.Options{Config: pipeline.Baseline})
	if reflect.DeepEqual(run(base, PolicyIPDOM), run(base, PolicyMinSPPC)) {
		t.Errorf("minsppc produced a profile identical to ipdom on divergent code")
	}

	// Compiler-shaped structured loops reconverge identically under both
	// stack models, so the vortex comparison needs genuinely unstructured
	// flow: a generated kernel whose unmerged loop makes IPDOM's
	// opportunistic back-edge merging fire (seed pinned from a scan —
	// harden.Generate is deterministic).
	k := harden.Generate(27)
	opt := ir.Clone(k.F)
	if _, err := pipeline.Optimize(opt, pipeline.Options{Config: pipeline.UnmergeOnly, LoopID: 0, Contain: true}); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	unmerged, err := codegen.Lower(opt)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	kargs := make([]interp.Value, len(k.Args))
	for i, a := range k.Args {
		kargs[i] = interp.IntVal(a)
	}
	runGen := func(pol PolicyKind) *Profile {
		cfg := V100()
		cfg.Policy = pol
		mem := interp.NewMemory(k.MemSize)
		for i, v := range k.F64Init {
			mem.SetF64(k.In0Base, int64(i), v)
		}
		for i, v := range k.I64Init {
			mem.SetI64(k.In1Base, int64(i), v)
		}
		prof := NewProfile(unmerged)
		if _, err := RunCtx(context.Background(), unmerged, kargs, mem, Launch{GridDim: k.GridDim, BlockDim: k.BlockDim}, cfg, prof); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		return prof
	}
	if reflect.DeepEqual(runGen(PolicyIPDOM), runGen(PolicyVortex)) {
		t.Errorf("vortex produced a profile identical to ipdom on unmerged unstructured flow")
	}
}
