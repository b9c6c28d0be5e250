package lang_test

import (
	"errors"
	"testing"

	"uu/internal/bench"
	"uu/internal/ir"
	"uu/internal/lang"
)

// FuzzCompileKernel holds the MiniCU frontend (lexer, parser, checker,
// lowerer) to its contract on any source text: it never panics, every error
// it returns is a *lang.Error, and when it returns no error the function it
// returns passes ir.Verify.
func FuzzCompileKernel(f *testing.F) {
	for _, b := range bench.Suite {
		f.Add(b.Source)
	}
	// Sources that once panicked or returned a plain error.
	for _, stmt := range []string{
		"p[0] = -p;", "f[0] = -f;", "p[0] = ~p;", "p[0] = abs(p);",
		"f[0] = fabs(p);", "f[0] = pow(p, 2.0);", "p[0] = p[q];",
		"p[0] = p ? 1 : 2;", "p[0] = !p;", "p[0] = (int)p;",
		"p[0] = min(p, 1);", "p[0] = ~1.5;", "p[0] = 1 @ 2;",
	} {
		f.Add("kernel k(int* p, int* q, float* f) {\n  int a = 0;\n  " + stmt + "\n}\n")
	}
	f.Add("kernel a(long* p) { }\nkernel b(long* p) { }")
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := lang.CompileKernel(src)
		if err != nil {
			if !errors.As(err, new(*lang.Error)) {
				t.Fatalf("CompileKernel returned %T, not a *lang.Error: %v\nsource:\n%s", err, err, src)
			}
			return
		}
		if err := ir.Verify(fn); err != nil {
			t.Fatalf("CompileKernel accepted a source whose IR does not verify: %v\nsource:\n%s", err, src)
		}
	})
}
