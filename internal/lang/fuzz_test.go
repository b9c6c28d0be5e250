package lang

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"uu/internal/interp"
	"uu/internal/pipeline"
)

// randExpr builds a random fully-parenthesized integer expression over the
// variables a, b, c and returns both its MiniCU spelling and a direct Go
// evaluator with identical semantics (wrap-around arithmetic, masked shifts,
// division-by-zero yields zero as the simulator defines).
func randExpr(rng *rand.Rand, depth int) (string, func(a, b, c int64) int64) {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return "a", func(a, b, c int64) int64 { return a }
		case 1:
			return "b", func(a, b, c int64) int64 { return b }
		case 2:
			return "c", func(a, b, c int64) int64 { return c }
		default:
			k := int64(rng.Intn(41) - 20)
			return fmt.Sprintf("(%d)", k), func(a, b, c int64) int64 { return k }
		}
	}
	ls, lf := randExpr(rng, depth-1)
	rs, rf := randExpr(rng, depth-1)
	ops := []struct {
		tok  string
		eval func(x, y int64) int64
	}{
		{"+", func(x, y int64) int64 { return x + y }},
		{"-", func(x, y int64) int64 { return x - y }},
		{"*", func(x, y int64) int64 { return x * y }},
		{"&", func(x, y int64) int64 { return x & y }},
		{"|", func(x, y int64) int64 { return x | y }},
		{"^", func(x, y int64) int64 { return x ^ y }},
		{"<<", func(x, y int64) int64 { return x << (uint64(y) & 63) }},
		{">>", func(x, y int64) int64 { return x >> (uint64(y) & 63) }},
		{"/", func(x, y int64) int64 {
			if y == 0 {
				return 0
			}
			return x / y
		}},
		{"%", func(x, y int64) int64 {
			if y == 0 {
				return 0
			}
			return x % y
		}},
	}
	op := ops[rng.Intn(len(ops))]
	// Ternary and min/max occasionally.
	switch rng.Intn(8) {
	case 0:
		cs, cf := randExpr(rng, depth-1)
		return fmt.Sprintf("((%s) > 0 ? (%s) : (%s))", cs, ls, rs),
			func(a, b, c int64) int64 {
				if cf(a, b, c) > 0 {
					return lf(a, b, c)
				}
				return rf(a, b, c)
			}
	case 1:
		return fmt.Sprintf("min((%s), (%s))", ls, rs),
			func(a, b, c int64) int64 { return min(lf(a, b, c), rf(a, b, c)) }
	}
	return fmt.Sprintf("((%s) %s (%s))", ls, op.tok, rs),
		func(a, b, c int64) int64 { return op.eval(lf(a, b, c), rf(a, b, c)) }
}

// TestRandomExpressionsDifferential compiles random expressions through the
// frontend and runs them in the interpreter, comparing against direct Go
// evaluation — both with and without the baseline optimization pipeline.
func TestRandomExpressionsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		exprSrc, eval := randExpr(rng, 4)
		src := fmt.Sprintf(`
kernel k(long* restrict out, long a, long b, long c) {
  out[0] = %s;
}
`, exprSrc)
		f, err := CompileKernel(src)
		if err != nil {
			t.Fatalf("trial %d: compile: %v\nexpr: %s", trial, err, exprSrc)
		}
		optimized := compile(t, src)
		if _, err := pipeline.Optimize(optimized, pipeline.Options{Config: pipeline.Baseline, VerifyEachPass: true}); err != nil {
			t.Fatalf("trial %d: pipeline: %v", trial, err)
		}
		for probe := 0; probe < 8; probe++ {
			a := rng.Int63n(2001) - 1000
			b := rng.Int63n(2001) - 1000
			c := rng.Int63n(41) - 20
			want := eval(a, b, c)
			args := []interp.Value{interp.IntVal(0), interp.IntVal(a), interp.IntVal(b), interp.IntVal(c)}
			mem := interp.NewMemory(8)
			if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
				t.Fatalf("trial %d: interp: %v\nexpr: %s", trial, err, exprSrc)
			}
			if got := mem.I64(0, 0); got != want {
				t.Fatalf("trial %d: frontend mismatch: %s with (a=%d b=%d c=%d): got %d want %d",
					trial, exprSrc, a, b, c, got, want)
			}
			mem2 := interp.NewMemory(8)
			if _, err := interp.RunCounted(optimized, args, mem2, interp.Env{}, nil); err != nil {
				t.Fatalf("trial %d: optimized interp: %v", trial, err)
			}
			if got := mem2.I64(0, 0); got != want {
				t.Fatalf("trial %d: optimizer mismatch: %s with (a=%d b=%d c=%d): got %d want %d\n%s",
					trial, exprSrc, a, b, c, got, want, optimized.String())
			}
		}
	}
}

// TestRandomLoopKernelsDifferential stresses the loop passes: random small
// loop bodies built from the expression generator, run through every
// configuration and compared against the unoptimized frontend output.
func TestRandomLoopKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		bodyA, _ := randExpr(rng, 2)
		bodyB, _ := randExpr(rng, 2)
		cond, _ := randExpr(rng, 1)
		src := fmt.Sprintf(`
kernel k(long* restrict out, long a, long b, long n) {
  long c = 0;
  long acc = 0;
  for (long i = 0; i < n; i++) {
    c = i %% 7 - 3;
    if ((%s) > c) {
      acc += (%s) & 1023;
    } else {
      acc -= (%s) & 511;
    }
  }
  out[0] = acc;
}
`, cond, bodyA, bodyB)
		ref := compile(t, src)
		refOut := func(a, b, n int64) int64 {
			mem := interp.NewMemory(8)
			args := []interp.Value{interp.IntVal(0), interp.IntVal(a), interp.IntVal(b), interp.IntVal(n)}
			if _, err := interp.RunCounted(ref, args, mem, interp.Env{}, nil); err != nil {
				t.Fatalf("trial %d: ref: %v", trial, err)
			}
			return mem.I64(0, 0)
		}
		for _, cfg := range []pipeline.Options{
			{Config: pipeline.Baseline},
			{Config: pipeline.UU, LoopID: 0, Factor: 3},
			{Config: pipeline.UUHeuristic},
		} {
			f := compile(t, src)
			cfg.VerifyEachPass = true
			if _, err := pipeline.Optimize(f, cfg); err != nil {
				if cfg.Config == pipeline.UU && strings.Contains(err.Error(), "not unrollable") {
					continue
				}
				t.Fatalf("trial %d: %s: %v", trial, cfg.Config, err)
			}
			for probe := 0; probe < 4; probe++ {
				a := rng.Int63n(101) - 50
				b := rng.Int63n(101) - 50
				n := rng.Int63n(12)
				mem := interp.NewMemory(8)
				args := []interp.Value{interp.IntVal(0), interp.IntVal(a), interp.IntVal(b), interp.IntVal(n)}
				if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
					t.Fatalf("trial %d: %s interp: %v", trial, cfg.Config, err)
				}
				if got, want := mem.I64(0, 0), refOut(a, b, n); got != want {
					t.Fatalf("trial %d: %s mismatch (a=%d b=%d n=%d): got %d want %d\nsrc:%s",
						trial, cfg.Config, a, b, n, got, want, src)
				}
			}
		}
	}
}
