package irparse

import (
	"strings"
	"testing"

	"uu/internal/core"
	"uu/internal/ir"
)

const loopSrc = `
func @count(i64 %n) -> i64 {
entry:
  br %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %inc, %loop ]
  %sum = phi i64 [ 0, %entry ], [ %nsum, %loop ]
  %inc = add i64 %i, i64 1
  %nsum = add i64 %sum, i64 %i
  %c = icmp slt i64 %inc, i64 %n
  condbr i1 %c, %loop, %exit
exit:
  ret i64 %nsum
}
`

func TestParseLoop(t *testing.T) {
	f, err := ParseFunc(loopSrc)
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if f.Name != "count" || f.RetTyp != ir.I64 || len(f.Params) != 1 {
		t.Fatalf("header parsed wrong: %s", f.String())
	}
	loop := f.BlockByName("loop")
	if loop == nil || len(loop.Phis()) != 2 {
		t.Fatalf("loop block wrong")
	}
	phi := loop.Phis()[0]
	if phi.PhiIncoming(f.Entry()).(*ir.Const).Int != 0 {
		t.Fatalf("phi entry incoming wrong")
	}
	if phi.PhiIncoming(loop) == nil {
		t.Fatalf("phi backedge incoming missing")
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := ParseFunc(loopSrc)
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	printed := f.String()
	f2, err := ParseFunc(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, printed)
	}
	if got := f2.String(); got != printed {
		t.Fatalf("round trip mismatch:\n--- first\n%s\n--- second\n%s", printed, got)
	}
}

func TestParseMemoryOps(t *testing.T) {
	src := `
func @axpy(f64* noalias %x, f64* noalias %y, f64 %a, i64 %n) {
entry:
  %t = tid
  %i = sext i32 %t to i64
  %c = icmp slt i64 %i, i64 %n
  condbr i1 %c, %body, %done
body:
  %px = gep f64* %x, i64 %i
  %py = gep f64* %y, i64 %i
  %vx = load f64* %px
  %vy = load f64* %py
  %ax = fmul f64 %a, f64 %vx
  %s = fadd f64 %ax, f64 %vy
  store f64 %s, f64* %py
  br %done
done:
  ret
}
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !f.Params[0].Restrict || !f.Params[1].Restrict {
		t.Fatalf("noalias not parsed")
	}
	// Round-trip again.
	f2, err := ParseFunc(f.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if f2.String() != f.String() {
		t.Fatalf("round trip mismatch")
	}
}

func TestParseSelectConvMath(t *testing.T) {
	src := `
func @m(f64 %x, i64 %k) -> f64 {
entry:
  %c = icmp sgt i64 %k, i64 0
  %s = select i1 %c, f64 %x, f64 0.0
  %r = sqrt f64 %s
  %p = pow f64 %r, f64 2.0
  %mn = fmin f64 %p, f64 100.0
  ret f64 %mn
}
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"badop", "func @f() {\nentry:\n  %x = bogus i64 %y\n}", "unknown opcode"},
		{"undef", "func @f() {\nentry:\n  %x = add i64 %y, i64 1\n  ret\n}", "undefined value"},
		{"dupname", "func @f() {\nentry:\n  %x = tid\n  %x = tid\n  ret\n}", "duplicate value name"},
		{"badlabel", "func @f() {\nentry:\n  br %nowhere\n}", "unknown block"},
		{"badtype", "func @f(q7 %x) {\nentry:\n  ret\n}", "unknown type"},
		{"typemismatch", "func @f(i32 %x) {\nentry:\n  %y = add i64 %x, i64 1\n  ret\n}", "type"},
		{"nofunc", "; nothing here\n", "irparse: expected exactly one function, got 0"},
		{"twofuncs", "func @a() {\nentry:\n  ret\n}\n\nfunc @b() {\nentry:\n  ret\n}\n", "irparse: expected exactly one function, got 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFunc(tc.src)
			if err == nil {
				t.Fatalf("no error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestRoundTripTransformedFunction: the printer/parser round-trips a CFG
// after heavy transformation (unroll + unmerge produce the hairiest shapes).
func TestRoundTripTransformedFunction(t *testing.T) {
	src := `
func @f(i64* noalias %out, i64 %n, i64 %k) {
entry:
  br %H
H:
  %i = phi i64 [ 0, %entry ], [ %i2, %L ]
  %c = icmp sgt i64 %k, i64 %i
  condbr i1 %c, %a, %b
a:
  br %L
b:
  br %L
L:
  %v = phi i64 [ 1, %a ], [ 2, %b ]
  %p = gep i64* %out, i64 %i
  store i64 %v, i64* %p
  %i2 = add i64 %i, i64 1
  %cc = icmp slt i64 %i2, i64 %n
  condbr i1 %cc, %H, %exit
exit:
  ret
}
`
	f, err := ParseFunc(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.UnrollAndUnmerge(f, 0, 3, core.Options{}); err != nil {
		t.Fatalf("u&u: %v", err)
	}
	printed := f.String()
	f2, err := ParseFunc(printed)
	if err != nil {
		t.Fatalf("reparse of transformed function failed: %v", err)
	}
	if err := ir.Verify(f2); err != nil {
		t.Fatalf("verify reparsed: %v", err)
	}
	if f2.String() != printed {
		t.Fatalf("round trip not stable")
	}
}
