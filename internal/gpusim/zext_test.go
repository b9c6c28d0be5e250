package gpusim

import (
	"testing"

	"uu/internal/codegen"
	"uu/internal/interp"
	"uu/internal/irparse"
)

// TestZExtI8MatchesInterpreter pins the zext semantics that SrcType
// enables: an i8 register holds its value sign-extended (load i8 of 0xFF
// is -1), and zext to i64 must zero-extend through the *source* width,
// producing 255. The retired heuristic — treat anything outside {0, 1} as
// already zero-extended — returned -1 here.
func TestZExtI8MatchesInterpreter(t *testing.T) {
	src := `
func @k(i8* noalias %p, i64* noalias %q) {
entry:
  %t = tid
  %i = sext i32 %t to i64
  %pp = gep i8* %p, i64 %i
  %v = load i8* %pp
  %z = zext i8 %v to i64
  %pq = gep i64* %q, i64 %i
  store i64 %z, i64* %pq
  ret
}
`
	f, err := irparse.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	const n = 32
	refMem := interp.NewMemory(n + 8*n)
	simMem := interp.NewMemory(n + 8*n)
	for i := int64(0); i < n; i++ {
		// Cover the full signed byte range including 0xFF and 0x80.
		b := byte(i*8 + 255 - i)
		refMem.Data[i] = b
		simMem.Data[i] = b
	}
	args := []interp.Value{interp.IntVal(0), interp.IntVal(n)}
	for tid := 0; tid < n; tid++ {
		env := interp.Env{TID: int32(tid), NTID: n, CTAID: 0, NCTAID: 1}
		if _, err := interp.RunCounted(f, args, refMem, env, nil); err != nil {
			t.Fatalf("interp: %v", err)
		}
	}

	p, err := codegen.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if _, err := Run(p, args, simMem, Launch{GridDim: 1, BlockDim: n}, V100()); err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i := int64(0); i < n; i++ {
		ref, sim := refMem.I64(n, i), simMem.I64(n, i)
		if ref != sim {
			t.Fatalf("q[%d]: interp=%d sim=%d", i, ref, sim)
		}
		if want := int64(refMem.Data[i]); ref != want {
			t.Fatalf("q[%d]: interp=%d, want zero-extended %d", i, ref, want)
		}
	}
}
