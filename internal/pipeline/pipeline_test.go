package pipeline

import (
	"math/rand"
	"testing"
	"time"

	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/lang"
)

// The XSBench binary-search kernel (paper Listing 1) exercised across every
// configuration.
const bsearchSrc = `
kernel bsearch(double* restrict A, long* restrict out, long n, double quarry) {
  long lowerLimit = 0;
  long upperLimit = n - 1;
  long length = upperLimit - lowerLimit;
  while (length > 1) {
    long mid = lowerLimit + length / 2;
    if (A[mid] > quarry) {
      upperLimit = mid;
    } else {
      lowerLimit = mid;
    }
    length = upperLimit - lowerLimit;
  }
  out[0] = lowerLimit;
}
`

func runBsearch(t *testing.T, f *ir.Function, a []float64, q float64) int64 {
	t.Helper()
	n := int64(len(a))
	mem := interp.NewMemory(8*n + 8)
	for i, v := range a {
		mem.SetF64(0, int64(i), v)
	}
	args := []interp.Value{interp.IntVal(0), interp.IntVal(8 * n), interp.IntVal(n), interp.FloatVal(q)}
	if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("interp: %v\n%s", err, f.String())
	}
	return mem.I64(8*n, 0)
}

func TestAllConfigsPreserveSemantics(t *testing.T) {
	a := make([]float64, 256)
	for i := range a {
		a[i] = float64(i) * 0.25
	}
	want := func(q float64) int64 {
		return runBsearch(t, lang.MustCompileKernel(bsearchSrc), a, q)
	}
	rng := rand.New(rand.NewSource(5))
	queries := make([]float64, 25)
	for i := range queries {
		queries[i] = rng.Float64() * 70
	}

	cases := []Options{
		{Config: Baseline},
		{Config: UUHeuristic},
		{Config: UnmergeOnly, LoopID: 0},
	}
	for _, u := range []int{2, 4, 8} {
		cases = append(cases,
			Options{Config: UnrollOnly, LoopID: 0, Factor: u},
			Options{Config: UU, LoopID: 0, Factor: u})
	}
	for _, opts := range cases {
		opts.VerifyEachPass = true
		f := lang.MustCompileKernel(bsearchSrc)
		if _, err := Optimize(f, opts); err != nil {
			t.Fatalf("%s u%d: %v", opts.Config, opts.Factor, err)
		}
		for _, q := range queries {
			if got := runBsearch(t, f, a, q); got != want(q) {
				t.Fatalf("%s u%d: bsearch(%v) = %d, want %d", opts.Config, opts.Factor, q, got, want(q))
			}
		}
	}
}

func TestBaselinePredicatesXSBenchBody(t *testing.T) {
	// The paper's Listing 4: the baseline emits selects for the
	// upper/lower updates; u&u removes them on the unmerged paths.
	f := lang.MustCompileKernel(bsearchSrc)
	if _, err := Optimize(f, Options{Config: Baseline, VerifyEachPass: true}); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if n := countOp(f, ir.OpSelect); n < 2 {
		t.Fatalf("baseline has %d selects, want >= 2 (selp-style predication):\n%s", n, f.String())
	}
	// No conditional branch should remain inside the loop body other than
	// the loop exit test.
	if n := countOp(f, ir.OpCondBr); n != 1 {
		t.Fatalf("baseline has %d condbr, want 1:\n%s", n, f.String())
	}

	f2 := lang.MustCompileKernel(bsearchSrc)
	if _, err := Optimize(f2, Options{Config: UU, LoopID: 0, Factor: 2, VerifyEachPass: true}); err != nil {
		t.Fatalf("uu: %v", err)
	}
	if n := countOp(f2, ir.OpCondBr); n < 3 {
		t.Fatalf("u&u should reintroduce branches, got %d condbr:\n%s", n, f2.String())
	}
	// The subtraction disappears on unmerged paths: on the A[mid] > quarry
	// side, upperLimit == mid == lowerLimit + length/2, so
	// upperLimit - lowerLimit folds to length/2 (§V). Count dynamic subs on
	// a query whose search mostly takes that side.
	dynSubs := func(f *ir.Function) int64 {
		a := make([]float64, 256)
		for i := range a {
			a[i] = float64(i)
		}
		n := int64(len(a))
		mem := interp.NewMemory(8*n + 8)
		for i, v := range a {
			mem.SetF64(0, int64(i), v)
		}
		ctr := &interp.Counters{Ops: map[ir.Op]int64{}}
		args := []interp.Value{interp.IntVal(0), interp.IntVal(8 * n), interp.IntVal(n), interp.FloatVal(2.5)}
		if _, err := interp.RunCounted(f, args, mem, interp.Env{}, ctr); err != nil {
			t.Fatalf("interp: %v", err)
		}
		return ctr.Ops[ir.OpSub]
	}
	if base, uu := dynSubs(f), dynSubs(f2); uu >= base {
		t.Fatalf("u&u dynamic subs %d not below baseline %d (expected elimination)", uu, base)
	}
}

func TestUUEnablesMoreThanParts(t *testing.T) {
	// Dynamic instruction counts via the interpreter: u&u executes fewer
	// instructions than unroll-only or unmerge-only at the same factor on
	// the bezier two-condition loop.
	src := `
kernel bez(double* restrict out, long nn0, long kn0, long nkn0) {
  long nn = nn0;
  long kn = kn0;
  long nkn = nkn0;
  double blend = 1.0;
  while (nn >= 1) {
    blend *= (double)nn;
    nn--;
    if (kn > 1) {
      blend /= (double)kn;
      kn--;
    }
    if (nkn > 1) {
      blend /= (double)nkn;
      nkn--;
    }
  }
  out[0] = blend;
}
`
	steps := func(opts Options) int64 {
		f := lang.MustCompileKernel(src)
		opts.VerifyEachPass = true
		if _, err := Optimize(f, opts); err != nil {
			t.Fatalf("%s: %v", opts.Config, err)
		}
		ctr := &interp.Counters{Ops: map[ir.Op]int64{}}
		mem := interp.NewMemory(8)
		args := []interp.Value{interp.IntVal(0), interp.IntVal(40), interp.IntVal(4), interp.IntVal(7)}
		if _, err := interp.RunCounted(f, args, mem, interp.Env{}, ctr); err != nil {
			t.Fatalf("interp: %v", err)
		}
		if got := mem.F64(0, 0); got == 0 {
			t.Fatalf("no result")
		}
		return ctr.Steps
	}
	baseline := steps(Options{Config: Baseline})
	unroll := steps(Options{Config: UnrollOnly, LoopID: 0, Factor: 4})
	unmerge := steps(Options{Config: UnmergeOnly, LoopID: 0})
	uu := steps(Options{Config: UU, LoopID: 0, Factor: 4})
	if uu >= unroll || uu >= unmerge || uu >= baseline {
		t.Fatalf("u&u should execute the fewest instructions: baseline=%d unroll=%d unmerge=%d uu=%d",
			baseline, unroll, unmerge, uu)
	}
}

func TestPipelineStats(t *testing.T) {
	f := lang.MustCompileKernel(bsearchSrc)
	stats, err := Optimize(f, Options{Config: UU, LoopID: 0, Factor: 2})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if stats.CompileTime <= 0 || len(stats.PassTimes) == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if !stats.LoopTransformed {
		t.Fatalf("loop not transformed")
	}
	byName := map[string]time.Duration{}
	for _, pt := range stats.PassTimes {
		byName[pt.Name] += pt.Duration
	}
	for _, name := range []string{"mem2reg", "sccp", "gvn", "dce", "simplifycfg"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("pass %s missing from stats", name)
		}
	}
}

func TestBadLoopID(t *testing.T) {
	f := lang.MustCompileKernel(bsearchSrc)
	if _, err := Optimize(f, Options{Config: UU, LoopID: 99, Factor: 2}); err == nil {
		t.Fatalf("no error for bogus loop id")
	}
}

func TestHeuristicDecisionsReported(t *testing.T) {
	f := lang.MustCompileKernel(bsearchSrc)
	stats, err := Optimize(f, Options{Config: UUHeuristic})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if len(stats.Decisions) != 1 {
		t.Fatalf("want 1 heuristic decision, got %d", len(stats.Decisions))
	}
	d := stats.Decisions[0]
	if d.Factor < 2 || d.Factor > 8 || d.Paths != 2 {
		t.Fatalf("unexpected decision: %+v", d)
	}
}

func countOp(f *ir.Function, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}
