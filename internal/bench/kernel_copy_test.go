package bench

import (
	"testing"

	"uu/internal/ir"
	"uu/internal/lang"
)

// TestCompileKernelIsAFreshCopy: a Benchmark runs its frontend once and
// hands out copies, and nothing a caller can observe says so. Every copy is
// what a frontend run of its own would have returned — same text, same
// fingerprint, so same IDs, counters and list orders — and whatever a caller
// does to its copy (here: a contained, verified compile under each golden
// configuration, through Compile and so through codegen's edge splitting
// too) reaches neither the next copy nor the function they are copied from.
func TestCompileKernelIsAFreshCopy(t *testing.T) {
	for _, b := range Suite {
		direct, err := lang.CompileKernel(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		wantSum, wantText := ir.Fingerprint(direct), direct.String()
		check := func(when string) {
			t.Helper()
			f, err := b.CompileKernel()
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, when, err)
			}
			if f == b.frontend {
				t.Fatalf("%s %s: CompileKernel returned the shared function itself", b.Name, when)
			}
			if got := ir.Fingerprint(f); got != wantSum {
				t.Errorf("%s %s: a copy's fingerprint is %x, the frontend's own %x", b.Name, when, got, wantSum)
			}
			if f.String() != wantText {
				t.Errorf("%s %s: a copy prints differently from a frontend run of its own", b.Name, when)
			}
			if got := ir.Fingerprint(b.frontend); got != wantSum {
				t.Errorf("%s %s: the shared function's fingerprint moved to %x", b.Name, when, got)
			}
		}
		check("first")
		for _, opts := range goldenCases() {
			// An error here is a configuration that does not apply to this
			// kernel (the golden corpus records those); it still ran passes.
			_, _ = Compile(b, opts)
			check("after " + goldenName(b.Name, opts))
		}
		if b.Kernel() == b.Kernel() {
			t.Errorf("%s: Kernel returned one function twice", b.Name)
		}
	}
}

// TestCompileKernelErrorIsMemoised: a benchmark whose source does not compile
// says so, in the same words, every time it is asked.
func TestCompileKernelErrorIsMemoised(t *testing.T) {
	b := &Benchmark{Name: "broken", Source: "kernel k(long* p) { p[0] = ; }"}
	_, first := b.CompileKernel()
	_, second := b.CompileKernel()
	if first == nil || second == nil || first.Error() != second.Error() {
		t.Fatalf("want the same frontend error twice, got %v then %v", first, second)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Kernel did not panic on malformed source")
		}
	}()
	b.Kernel()
}
