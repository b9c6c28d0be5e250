package gpusim

import (
	"bytes"
	"testing"

	"uu/internal/codegen"
	"uu/internal/interp"
	"uu/internal/irparse"
)

// TestPhiCopyCyclesMatchInterpreter runs a loop whose back edge carries two
// parallel-copy cycles in one block — a three-way rotation of integers and a
// swap of floats — so codegen breaks each with a temporary register of its
// own. Each thread turns the loop tid+1 times, and the simulator's memory
// must equal the interpreter's.
func TestPhiCopyCyclesMatchInterpreter(t *testing.T) {
	f, err := irparse.ParseFunc(`
func @k(i64* noalias %out, f64* noalias %fout) {
entry:
  %t = tid
  %n = sext i32 %t to i64
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %inc, %head ]
  %a = phi i64 [ 1, %entry ], [ %b, %head ]
  %b = phi i64 [ 2, %entry ], [ %c, %head ]
  %c = phi i64 [ 3, %entry ], [ %a, %head ]
  %x = phi f64 [ 1.5, %entry ], [ %y, %head ]
  %y = phi f64 [ 2.5, %entry ], [ %x, %head ]
  %inc = add i64 %i, i64 1
  %more = icmp sle i64 %inc, i64 %n
  condbr i1 %more, %head, %exit
exit:
  %a100 = mul i64 %a, i64 100
  %b10 = mul i64 %b, i64 10
  %ab = add i64 %a100, i64 %b10
  %abc = add i64 %ab, i64 %c
  %po = gep i64* %out, i64 %n
  store i64 %abc, i64* %po
  %k = mul i64 %n, i64 2
  %px = gep f64* %fout, i64 %k
  store f64 %x, f64* %px
  %k1 = add i64 %k, i64 1
  %py = gep f64* %fout, i64 %k1
  store f64 %y, f64* %py
  ret
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	const n = 8
	size := int64(8*n + 16*n)
	refMem, simMem := interp.NewMemory(size), interp.NewMemory(size)
	args := []interp.Value{interp.IntVal(0), interp.IntVal(8 * n)}
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
	backEdge := -1 // the block splitting the critical edge head -> head
	for _, b := range p.Blocks {
		if b.Name == "head.head" {
			backEdge = len(b.Instrs)
		}
	}
	if backEdge != 9 {
		t.Fatalf("the back edge holds %d instructions, want its six copies, two temporaries and a bra:\n%s", backEdge, p)
	}
	if _, err := Run(p, args, simMem, Launch{GridDim: 1, BlockDim: n}, V100()); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !bytes.Equal(refMem.Data, simMem.Data) {
		t.Fatalf("memory differs: interp %v, sim %v\n%s", refMem.Data, simMem.Data, p)
	}
}
