package gpusim

import (
	"strings"
	"testing"

	"uu/internal/codegen"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/lang"
	"uu/internal/pipeline"
)

// compile lowers a MiniCU source that must compile.
func compile(t testing.TB, src string) *ir.Function {
	t.Helper()
	f, err := lang.CompileKernel(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return f
}

// build compiles MiniCU source through the given pipeline config to VPTX.
func build(t testing.TB, src string, cfg pipeline.Options) *codegen.Program {
	t.Helper()
	f := compile(t, src)
	cfg.VerifyEachPass = true
	if _, err := pipeline.Optimize(f, cfg); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	p, err := codegen.Lower(f)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return p
}

const axpySrc = `
kernel axpy(double* restrict x, double* restrict y, double a, long n) {
  long i = (long)global_id();
  if (i < n) {
    y[i] = a * x[i] + y[i];
  }
}
`

func TestSimulatorMatchesInterpreter(t *testing.T) {
	// Run the same kernel via the sequential interpreter (oracle) and the
	// SIMT simulator; final memory must agree.
	f := compile(t, axpySrc)
	refMem := interp.NewMemory(8 * 256)
	simMem := interp.NewMemory(8 * 256)
	for i := int64(0); i < 100; i++ {
		refMem.SetF64(0, i, float64(i)*0.5)
		simMem.SetF64(0, i, float64(i)*0.5)
		refMem.SetF64(8*100, i, float64(i))
		simMem.SetF64(8*100, i, float64(i))
	}
	args := []interp.Value{interp.IntVal(0), interp.IntVal(800), interp.FloatVal(3), interp.IntVal(100)}
	launch := Launch{GridDim: 2, BlockDim: 64}
	for tidx := 0; tidx < launch.Threads(); tidx++ {
		env := interp.Env{
			TID: int32(tidx % launch.BlockDim), NTID: int32(launch.BlockDim),
			CTAID: int32(tidx / launch.BlockDim), NCTAID: int32(launch.GridDim),
		}
		if _, err := interp.RunCounted(f, args, refMem, env, nil); err != nil {
			t.Fatalf("interp: %v", err)
		}
	}

	p := build(t, axpySrc, pipeline.Options{Config: pipeline.Baseline})
	me, err := Run(p, args, simMem, launch, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i := int64(0); i < 110; i++ {
		if refMem.F64(8*100, i) != simMem.F64(8*100, i) {
			t.Fatalf("memory mismatch at y[%d]: interp=%v sim=%v", i, refMem.F64(8*100, i), simMem.F64(8*100, i))
		}
	}
	if me.Warps != 4 {
		t.Fatalf("warps = %d, want 4", me.Warps)
	}
	if me.Cycles <= 0 || me.ThreadInstrs <= 0 {
		t.Fatalf("metrics empty: %+v", me)
	}
}

func TestCoalescingTransactions(t *testing.T) {
	// Contiguous f64 accesses by a full warp touch 8 segments of 32 bytes;
	// a strided access touches one segment per thread.
	contiguous := `
kernel c(double* restrict x) {
  long i = (long)tid();
  x[i] = 1.0;
}
`
	strided := `
kernel s(double* restrict x) {
  long i = (long)tid() * 8;
  x[i] = 1.0;
}
`
	launch := Launch{GridDim: 1, BlockDim: 32}
	pc := build(t, contiguous, pipeline.Options{Config: pipeline.Baseline})
	ps := build(t, strided, pipeline.Options{Config: pipeline.Baseline})
	memC := interp.NewMemory(8 * 32 * 8)
	memS := interp.NewMemory(8 * 32 * 8)
	mc, err := Run(pc, []interp.Value{interp.IntVal(0)}, memC, launch, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	ms, err := Run(ps, []interp.Value{interp.IntVal(0)}, memS, launch, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if mc.GstTransactions != 8 {
		t.Fatalf("contiguous store transactions = %d, want 8", mc.GstTransactions)
	}
	if ms.GstTransactions != 32 {
		t.Fatalf("strided store transactions = %d, want 32", ms.GstTransactions)
	}
	if ms.Cycles <= mc.Cycles {
		t.Fatalf("strided access should cost more cycles: %d vs %d", ms.Cycles, mc.Cycles)
	}
}

func TestDivergenceSerializesAndReconverges(t *testing.T) {
	// Odd/even threads take different paths; both sides execute serially and
	// reconverge. Warp execution efficiency drops below 1 but results are
	// correct for every thread.
	src := `
kernel d(long* restrict out) {
  long i = (long)tid();
  long v = 0;
  if ((i & 1) != 0) {
    v = i * 3;
  } else {
    v = i + 100;
  }
  out[i] = v;
}
`
	// Disable if-conversion so the branch survives to the simulator.
	p := build(t, src, pipeline.Options{Config: pipeline.Baseline, DisableIfConvert: true})
	if p.CountKind(codegen.KCondBra) == 0 {
		t.Fatalf("branch was removed despite DisableIfConvert:\n%s", p.String())
	}
	mem := interp.NewMemory(8 * 32)
	m, err := Run(p, []interp.Value{interp.IntVal(0)}, mem, Launch{GridDim: 1, BlockDim: 32}, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i := int64(0); i < 32; i++ {
		want := i + 100
		if i&1 != 0 {
			want = i * 3
		}
		if got := mem.I64(0, i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	wee := m.WarpExecutionEfficiency(V100())
	if wee >= 0.999 {
		t.Fatalf("divergent kernel reports full warp efficiency (%v)", wee)
	}

	// The if-converted build executes the same logic branch-free at full
	// efficiency.
	pSel := build(t, src, pipeline.Options{Config: pipeline.Baseline})
	if pSel.CountKind(codegen.KSelp) == 0 {
		t.Fatalf("baseline did not predicate the diamond:\n%s", pSel.String())
	}
	memSel := interp.NewMemory(8 * 32)
	mSel, err := Run(pSel, []interp.Value{interp.IntVal(0)}, memSel, Launch{GridDim: 1, BlockDim: 32}, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i := int64(0); i < 32; i++ {
		if memSel.I64(0, i) != mem.I64(0, i) {
			t.Fatalf("predicated result differs at %d", i)
		}
	}
	if wee2 := mSel.WarpExecutionEfficiency(V100()); wee2 < 0.999 {
		t.Fatalf("predicated kernel not at full efficiency: %v", wee2)
	}
}

func TestNestedDivergenceReconverges(t *testing.T) {
	src := `
kernel n2(long* restrict out) {
  long i = (long)tid();
  long v = 0;
  if ((i & 1) != 0) {
    if ((i & 2) != 0) { v = 1; } else { v = 2; }
  } else {
    if ((i & 4) != 0) { v = 3; } else { v = 4; }
  }
  out[i] = v + 10;
}
`
	p := build(t, src, pipeline.Options{Config: pipeline.Baseline, DisableIfConvert: true})
	mem := interp.NewMemory(8 * 32)
	if _, err := Run(p, []interp.Value{interp.IntVal(0)}, mem, Launch{GridDim: 1, BlockDim: 32}, V100()); err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i := int64(0); i < 32; i++ {
		var v int64
		switch {
		case i&1 != 0 && i&2 != 0:
			v = 1
		case i&1 != 0:
			v = 2
		case i&4 != 0:
			v = 3
		default:
			v = 4
		}
		if got := mem.I64(0, i); got != v+10 {
			t.Fatalf("out[%d] = %d, want %d", i, got, v+10)
		}
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Threads loop tid+1 times; divergence narrows the active mask as
	// threads finish, and all results must still be exact.
	src := `
kernel lp(long* restrict out) {
  long i = (long)tid();
  long acc = 0;
  for (long k = 0; k <= i; k++) {
    acc += k;
  }
  out[i] = acc;
}
`
	p := build(t, src, pipeline.Options{Config: pipeline.Baseline})
	mem := interp.NewMemory(8 * 32)
	m, err := Run(p, []interp.Value{interp.IntVal(0)}, mem, Launch{GridDim: 1, BlockDim: 32}, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i := int64(0); i < 32; i++ {
		want := i * (i + 1) / 2
		if got := mem.I64(0, i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if wee := m.WarpExecutionEfficiency(V100()); wee >= 0.999 || wee <= 0.1 {
		t.Fatalf("unexpected warp efficiency %v for ragged loop", wee)
	}
}

func TestICacheStalls(t *testing.T) {
	// A huge straight-line kernel overflows the icache each iteration is
	// fetched; a tiny loop stays resident. Compare fetch stalls.
	small := `
kernel s(long* restrict out, long n) {
  long acc = 0;
  for (long i = 0; i < n; i++) { acc += i; }
  out[0] = acc;
}
`
	p := build(t, small, pipeline.Options{Config: pipeline.Baseline})
	mem := interp.NewMemory(8)
	m, err := Run(p, []interp.Value{interp.IntVal(0), interp.IntVal(10000)}, mem, Launch{GridDim: 1, BlockDim: 1}, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if pct := m.StallInstFetchPct(); pct > 0.01 {
		t.Fatalf("resident loop shows %v fetch stalls", pct)
	}
	if mem.I64(0, 0) != 10000*9999/2 {
		t.Fatalf("wrong sum")
	}
}

func TestSampling(t *testing.T) {
	p := build(t, axpySrc, pipeline.Options{Config: pipeline.Baseline})
	args := []interp.Value{interp.IntVal(0), interp.IntVal(1 << 20), interp.FloatVal(2), interp.IntVal(1 << 16)}
	mem := interp.NewMemory(1 << 21)
	full, err := Run(p, args, mem, Launch{GridDim: 2048, BlockDim: 32}, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	mem2 := interp.NewMemory(1 << 21)
	sampled, err := Run(p, args, mem2, Launch{GridDim: 2048, BlockDim: 32, SampleWarps: 64}, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	ratio := float64(sampled.Cycles) / float64(full.Cycles)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("sampled cycles off by %vx", ratio)
	}
}

func TestPartialWarp(t *testing.T) {
	// 40 threads: one full warp plus a partial 8-lane warp; every thread's
	// result must be exact and the partial warp must report partial activity.
	src := `
kernel pw(long* restrict out, long n) {
  long i = (long)global_id();
  if (i >= n) { return; }
  out[i] = i * i;
}
`
	p := build(t, src, pipeline.Options{Config: pipeline.Baseline})
	mem := interp.NewMemory(8 * 64)
	m, err := Run(p, []interp.Value{interp.IntVal(0), interp.IntVal(40)}, mem,
		Launch{GridDim: 1, BlockDim: 40}, V100())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i := int64(0); i < 40; i++ {
		if got := mem.I64(0, i); got != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, got, i*i)
		}
	}
	if m.Warps != 2 {
		t.Fatalf("warps = %d, want 2", m.Warps)
	}
	if wee := m.WarpExecutionEfficiency(V100()); wee >= 0.99 {
		t.Fatalf("partial warp should lower efficiency, got %v", wee)
	}
}

func TestRetInsideDivergentRegion(t *testing.T) {
	// Half the threads return from inside a divergent branch; the rest must
	// still complete the loop correctly.
	src := `
kernel rd(long* restrict out) {
  long i = (long)tid();
  if ((i & 1) != 0) {
    out[i] = -1;
    return;
  }
  long acc = 0;
  for (long k = 0; k < 10; k++) {
    acc += i + k;
  }
  out[i] = acc;
}
`
	p := build(t, src, pipeline.Options{Config: pipeline.Baseline, DisableIfConvert: true})
	mem := interp.NewMemory(8 * 32)
	if _, err := Run(p, []interp.Value{interp.IntVal(0)}, mem, Launch{GridDim: 1, BlockDim: 32}, V100()); err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i := int64(0); i < 32; i++ {
		want := int64(-1)
		if i&1 == 0 {
			want = 10*i + 45
		}
		if got := mem.I64(0, i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestArgumentCountMismatch(t *testing.T) {
	p := build(t, axpySrc, pipeline.Options{Config: pipeline.Baseline})
	_, err := Run(p, []interp.Value{interp.IntVal(0)}, interp.NewMemory(64), Launch{GridDim: 1, BlockDim: 32}, V100())
	if err == nil {
		t.Fatalf("no error for wrong arg count")
	}
}

// TestUnrunnableLaunchIsAnError: a launch with no blocks or no threads per
// block used to come back as an all-zero Metrics and a nil error, and a
// negative x negative pair ran with negative block ids.
func TestUnrunnableLaunchIsAnError(t *testing.T) {
	p := build(t, axpySrc, pipeline.Options{Config: pipeline.Baseline})
	args := []interp.Value{interp.IntVal(0), interp.IntVal(256), interp.FloatVal(3), interp.IntVal(32)}
	for _, gb := range [][2]int{{1, 0}, {0, 32}, {-1, 32}, {1, -32}, {-2, -32}, {0, 0}} {
		l := Launch{GridDim: gb[0], BlockDim: gb[1]}
		m, err := Run(p, args, interp.NewMemory(1024), l, V100())
		if err == nil || !strings.HasPrefix(err.Error(), "gpusim: ") {
			t.Errorf("launch %dx%d: got metrics %+v, error %v; want a gpusim: error", l.GridDim, l.BlockDim, m, err)
		}
	}
	if _, err := Run(p, args, interp.NewMemory(1024), Launch{GridDim: 1, BlockDim: 1}, V100()); err != nil {
		t.Errorf("launch 1x1: %v", err)
	}
}

func TestOOBReportsError(t *testing.T) {
	src := `
kernel oob(long* restrict out) {
  out[1000000] = 1;
}
`
	p := build(t, src, pipeline.Options{Config: pipeline.Baseline})
	_, err := Run(p, []interp.Value{interp.IntVal(0)}, interp.NewMemory(64), Launch{GridDim: 1, BlockDim: 1}, V100())
	if err == nil {
		t.Fatalf("out-of-bounds store not reported")
	}
}
