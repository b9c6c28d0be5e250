package lang

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"uu/internal/analysis"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/transform"
)

func compile(t *testing.T, src string) *ir.Function {
	t.Helper()
	m, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(m.Funcs()) != 1 {
		t.Fatalf("want 1 kernel, got %d", len(m.Funcs()))
	}
	f := m.Funcs()[0]
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify: %v\n%s", err, f.String())
	}
	return f
}

func TestCompileAxpy(t *testing.T) {
	src := `
kernel axpy(double* restrict x, double* restrict y, double a, long n) {
  long i = (long)global_id();
  if (i < n) {
    y[i] = a * x[i] + y[i];
  }
}
`
	f := compile(t, src)
	if !f.Params[0].Restrict || f.Params[2].Typ != ir.F64 || f.Params[3].Typ != ir.I64 {
		t.Fatalf("params wrong: %s", f.String())
	}
	// Execute: 4 threads over n=3.
	mem := interp.NewMemory(8 * 8)
	for i := int64(0); i < 3; i++ {
		mem.SetF64(0, i, float64(i+1)) // x = 1,2,3
		mem.SetF64(32, i, 10)          // y = 10,10,10
	}
	for tid := int32(0); tid < 4; tid++ {
		env := interp.Env{TID: tid, NTID: 4, CTAID: 0, NCTAID: 1}
		args := []interp.Value{interp.IntVal(0), interp.IntVal(32), interp.FloatVal(2), interp.IntVal(3)}
		if _, err := interp.RunCounted(f, args, mem, env, nil); err != nil {
			t.Fatalf("run tid=%d: %v", tid, err)
		}
	}
	for i := int64(0); i < 3; i++ {
		want := 2*float64(i+1) + 10
		if got := mem.F64(32, i); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
}

// XSBench binary search, Listing 1 of the paper.
const xsbenchSrc = `
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

func refBsearch(a []float64, quarry float64) int64 {
	lower, upper := int64(0), int64(len(a)-1)
	length := upper - lower
	for length > 1 {
		mid := lower + length/2
		if a[mid] > quarry {
			upper = mid
		} else {
			lower = mid
		}
		length = upper - lower
	}
	return lower
}

func TestCompileXSBenchBinarySearch(t *testing.T) {
	f := compile(t, xsbenchSrc)
	transform.Mem2RegPass().Run(f, analysis.NewAnalysisManager(f))
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify after mem2reg: %v", err)
	}
	n := int64(128)
	mem := interp.NewMemory(8*n + 8)
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i) * 1.5
	}
	for i, v := range a {
		mem.SetF64(0, int64(i), v)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		q := rng.Float64() * 200
		args := []interp.Value{interp.IntVal(0), interp.IntVal(8 * n), interp.IntVal(n), interp.FloatVal(q)}
		if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
			t.Fatalf("run: %v", err)
		}
		if got, want := mem.I64(8*n, 0), refBsearch(a, q); got != want {
			t.Fatalf("bsearch(%v) = %d, want %d", q, got, want)
		}
	}
}

// The complex kernel loop, Listing 7 of the paper.
const complexSrc = `
kernel cpx(long* restrict out, long a0, long c0) {
  long n = (long)global_id();
  long idx = n;
  long a = a0;
  long c = c0;
  long a_new = 1;
  long c_new = 0;
  while (n > 0) {
    if ((n & 1) != 0) {
      a_new *= a;
      c_new = c_new * a + c;
    }
    c *= (a + 1);
    a *= a;
    n >>= 1;
  }
  out[idx] = a_new + c_new;
}
`

func refComplex(n, a, c int64) int64 {
	aNew, cNew := int64(1), int64(0)
	for n > 0 {
		if n&1 != 0 {
			aNew *= a
			cNew = cNew*a + c
		}
		c *= a + 1
		a *= a
		n >>= 1
	}
	return aNew + cNew
}

func TestCompileComplex(t *testing.T) {
	f := compile(t, complexSrc)
	transform.Mem2RegPass().Run(f, analysis.NewAnalysisManager(f))
	mem := interp.NewMemory(8 * 64)
	for tid := int32(0); tid < 64; tid++ {
		env := interp.Env{TID: tid % 32, NTID: 32, CTAID: tid / 32, NCTAID: 2}
		args := []interp.Value{interp.IntVal(0), interp.IntVal(3), interp.IntVal(5)}
		if _, err := interp.RunCounted(f, args, mem, env, nil); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	for i := int64(0); i < 64; i++ {
		if got, want := mem.I64(0, i), refComplex(i, 3, 5); got != want {
			t.Fatalf("complex(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The && must not evaluate x[i] when i >= n (out-of-bounds guard).
	src := `
kernel guard(double* restrict x, long* restrict out, long n) {
  long i = (long)tid();
  long hits = 0;
  if (i < n && x[i] > 0.5) {
    hits = 1;
  }
  if (i >= n || x[i] > 0.25) {
    hits += 2;
  }
  out[i] = hits;
}
`
	f := compile(t, src)
	mem := interp.NewMemory(8 + 8*8)
	mem.SetF64(0, 0, 0.3)
	// Thread 0: i<n(=1), x[0]=0.3: first false (0.3<0.5), second: i<n so x[0]>0.25 true => 2.
	env := interp.Env{TID: 0, NTID: 8, CTAID: 0, NCTAID: 1}
	args := []interp.Value{interp.IntVal(0), interp.IntVal(8), interp.IntVal(1)}
	if _, err := interp.RunCounted(f, args, mem, env, nil); err != nil {
		t.Fatalf("run tid 0: %v", err)
	}
	if got := mem.I64(8, 0); got != 2 {
		t.Fatalf("hits[0] = %d, want 2", got)
	}
	// Thread 3: i>=n; both memory accesses must be skipped (no OOB trap on
	// the 1-element array) and hits = 2 via the || short-circuit.
	env.TID = 3
	if _, err := interp.RunCounted(f, args, mem, env, nil); err != nil {
		t.Fatalf("run tid 3 (short-circuit failed to guard OOB?): %v", err)
	}
	if got := mem.I64(8, 3); got != 2 {
		t.Fatalf("hits[3] = %d, want 2", got)
	}
}

func TestTernaryAndMath(t *testing.T) {
	src := `
kernel m(double* restrict out, double x) {
  double r = x > 0.0 ? sqrt(x) : fabs(x);
  double s = pow(r, 2.0) + fmax(x, 0.0) + min(3, 5) + exp(0.0);
  out[0] = s + (x < 0.0 ? 1.0 : 0.0);
}
`
	f := compile(t, src)
	mem := interp.NewMemory(8)
	args := []interp.Value{interp.IntVal(0), interp.FloatVal(4)}
	if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := math.Pow(math.Sqrt(4), 2) + 4 + 3 + 1
	if got := mem.F64(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
	args[1] = interp.FloatVal(-2)
	if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	want = math.Pow(2, 2) + 0 + 3 + 1 + 1
	if got := mem.F64(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestForBreakContinue(t *testing.T) {
	src := `
kernel fbc(long* restrict out, long n) {
  long acc = 0;
  for (long i = 0; i < n; i++) {
    if (i % 2 == 0) { continue; }
    if (i > 10) { break; }
    acc += i;
  }
  do {
    acc += 100;
  } while (acc < 0);
  out[0] = acc;
}
`
	f := compile(t, src)
	mem := interp.NewMemory(8)
	args := []interp.Value{interp.IntVal(0), interp.IntVal(100)}
	if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	// 1+3+5+7+9 = 25, then +100.
	if got := mem.I64(0, 0); got != 125 {
		t.Fatalf("got %d, want 125", got)
	}
}

func TestFloat32Arithmetic(t *testing.T) {
	src := `
kernel f32(float* restrict out, float a, float b) {
  float c = a / b;
  out[0] = c * c + 1.0f;
}
`
	f := compile(t, src)
	mem := interp.NewMemory(4)
	args := []interp.Value{interp.IntVal(0), interp.FloatVal(1), interp.FloatVal(3)}
	if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	c := float32(1) / float32(3)
	want := c*c + 1
	if got := mem.F32(0, 0); got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"undef", "kernel k(long* p) { p[0] = x; }", "undefined variable"},
		{"badbuiltin", "kernel k(long* p) { p[0] = frobnicate(); }", "unknown builtin"},
		{"breakout", "kernel k(long* p) { break; }", "break outside loop"},
		{"ptrlocal", "kernel k(long* p) { long* q = p; }", "pointer-typed locals"},
		{"assignptr", "kernel k(long* p, long n) { p = p; }", "cannot assign to pointer"},
		{"redecl", "kernel k(long* p) { long a = 1; long a = 2; }", "redeclaration"},
		{"parse", "kernel k(long* p) { long a = ; }", "unexpected token"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatalf("no error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestNestedLoopsAndCompound(t *testing.T) {
	src := `
kernel nest(long* restrict out, long n, long m) {
  long total = 0;
  for (long i = 0; i < n; i++) {
    long rowsum = 0;
    for (long j = 0; j < m; j++) {
      rowsum += i * j;
    }
    total += rowsum;
  }
  out[0] = total;
}
`
	f := compile(t, src)
	transform.Mem2RegPass().Run(f, analysis.NewAnalysisManager(f))
	mem := interp.NewMemory(8)
	args := []interp.Value{interp.IntVal(0), interp.IntVal(5), interp.IntVal(4)}
	if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := int64(0)
	for i := int64(0); i < 5; i++ {
		for j := int64(0); j < 4; j++ {
			want += i * j
		}
	}
	if got := mem.I64(0, 0); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestLoopShapeHasUniqueLatch(t *testing.T) {
	// Even with continue, the lowered loop must have a single latch so the
	// unroller and unmerger accept it.
	src := `
kernel k(long* restrict out, long n) {
  long acc = 0;
  for (long i = 0; i < n; i++) {
    if (i % 3 == 0) { continue; }
    acc += i;
  }
  out[0] = acc;
}
`
	f := compile(t, src)
	transform.Mem2RegPass().Run(f, analysis.NewAnalysisManager(f))
	transform.SimplifyCFG(f)
	// Find loops; each must have a unique latch.
	lcount := 0
	{
		li := newLoopInfo(f)
		for _, l := range li {
			lcount++
			if l == nil {
				t.Fatalf("loop without unique latch")
			}
		}
	}
	if lcount == 0 {
		t.Fatalf("no loop found")
	}
}

// newLoopInfo returns each loop's unique latch (nil if it has several).
func newLoopInfo(f *ir.Function) []*ir.Block {
	dt := analysis.NewDomTree(f)
	li := analysis.NewLoopInfo(f, dt)
	var out []*ir.Block
	for _, l := range li.Loops {
		out = append(out, l.Latch())
	}
	return out
}

func TestLexerLiteralsAndComments(t *testing.T) {
	src := `
// line comment
kernel k(long* restrict out) {
  /* block
     comment */
  long a = 0x1F;      // hex
  long b = 10L;       // long suffix
  double c = 1.5e-3;  // exponent
  float d = 2.5f;     // float suffix
  out[0] = a + b + (long)(c * 1000.0) + (long)d;
}
`
	f := compile(t, src)
	mem := interp.NewMemory(8)
	if _, err := interp.RunCounted(f, []interp.Value{interp.IntVal(0)}, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	// 31 + 10 + 1 (1.5e-3*1000 = 1.5 -> fptosi 1) + 2 = 44
	if got := mem.I64(0, 0); got != 44 {
		t.Fatalf("got %d, want 44", got)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	src := `
kernel k(long* restrict out) {
  long a = 2 + 3 * 4;           // 14
  long b = (2 + 3) * 4;         // 20
  long c = 1 << 3 + 1;          // 1 << 4 = 16
  long d = 7 & 3 | 4;           // (7&3)|4 = 7
  long e = 10 - 4 - 3;          // left assoc: 3
  bool f = 1 < 2 == true;       // (1<2) == true
  long g = f ? 100 : 200;
  out[0] = a + b + c + d + e + g;
}
`
	f := compile(t, src)
	mem := interp.NewMemory(8)
	if _, err := interp.RunCounted(f, []interp.Value{interp.IntVal(0)}, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := int64(14 + 20 + 16 + 7 + 3 + 100)
	if got := mem.I64(0, 0); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestElseIfChainAndScopes(t *testing.T) {
	src := `
kernel k(long* restrict out, long x) {
  long r = 0;
  if (x < 10) {
    long v = 1;
    r = v;
  } else if (x < 20) {
    long v = 2;
    r = v;
  } else {
    long v = 3;
    r = v;
  }
  { long r2 = r * 10; r = r2; }
  out[0] = r;
}
`
	f := compile(t, src)
	for _, tc := range []struct{ x, want int64 }{{5, 10}, {15, 20}, {25, 30}} {
		mem := interp.NewMemory(8)
		if _, err := interp.RunCounted(f, []interp.Value{interp.IntVal(0), interp.IntVal(tc.x)}, mem, interp.Env{}, nil); err != nil {
			t.Fatalf("run: %v", err)
		}
		if got := mem.I64(0, 0); got != tc.want {
			t.Fatalf("x=%d: got %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestUnbracedBodies(t *testing.T) {
	src := `
kernel k(long* restrict out, long n) {
  long acc = 0;
  for (long i = 0; i < n; i++)
    if (i % 2 == 0)
      acc += i;
    else
      acc -= 1;
  while (acc < 0)
    acc++;
  out[0] = acc;
}
`
	f := compile(t, src)
	mem := interp.NewMemory(8)
	if _, err := interp.RunCounted(f, []interp.Value{interp.IntVal(0), interp.IntVal(10)}, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	// evens 0..8 sum = 20, minus 5 odds = 15
	if got := mem.I64(0, 0); got != 15 {
		t.Fatalf("got %d, want 15", got)
	}
}

func TestPrefixIncDecAndCompoundShift(t *testing.T) {
	src := `
kernel k(long* restrict out) {
  long a = 1;
  ++a;
  a <<= 4;
  a |= 1;
  a ^= 2;
  --a;
  a >>= 1;
  out[0] = a;
}
`
	f := compile(t, src)
	mem := interp.NewMemory(8)
	if _, err := interp.RunCounted(f, []interp.Value{interp.IntVal(0)}, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	// a=2; 32; 33; 35; 34; 17
	if got := mem.I64(0, 0); got != 17 {
		t.Fatalf("got %d, want 17", got)
	}
}

func TestArrayCompoundAssign(t *testing.T) {
	src := `
kernel k(double* restrict x, long n) {
  for (long i = 0; i < n; i++) {
    x[i] += 1.0;
    x[i] *= 2.0;
  }
}
`
	f := compile(t, src)
	mem := interp.NewMemory(8 * 4)
	for i := int64(0); i < 4; i++ {
		mem.SetF64(0, i, float64(i))
	}
	if _, err := interp.RunCounted(f, []interp.Value{interp.IntVal(0), interp.IntVal(4)}, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := int64(0); i < 4; i++ {
		if got, want := mem.F64(0, i), (float64(i)+1)*2; got != want {
			t.Fatalf("x[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestMultipleKernelsInFile(t *testing.T) {
	src := `
kernel a(long* restrict out) { out[0] = 1; }
kernel b(long* restrict out) { out[0] = 2; }
`
	m, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if fs := m.Funcs(); len(fs) != 2 || fs[0].Name != "a" || fs[1].Name != "b" {
		t.Fatalf("kernels missing")
	}
}

func TestSyncthreadsLowersToBarrier(t *testing.T) {
	src := `
kernel k(long* restrict out) {
  out[(long)tid()] = 1;
  syncthreads();
  out[(long)tid()] += 1;
}
`
	f := compile(t, src)
	found := false
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op == ir.OpBarrier {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no barrier emitted:\n%s", f.String())
	}
}

func TestNegativeAndUnaryOps(t *testing.T) {
	src := `
kernel k(long* restrict out, long x, double y) {
  out[0] = -x + ~x + (!(x > 0) ? 10 : 20);
  out[1] = (long)(-y);
}
`
	f := compile(t, src)
	mem := interp.NewMemory(16)
	args := []interp.Value{interp.IntVal(0), interp.IntVal(5), interp.FloatVal(2.5)}
	if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := mem.I64(0, 0); got != -5+(-6)+20 {
		t.Fatalf("out[0] = %d", got)
	}
	if got := mem.I64(0, 1); got != -2 {
		t.Fatalf("out[1] = %d", got)
	}
}
