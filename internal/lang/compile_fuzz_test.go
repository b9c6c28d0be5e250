package lang_test

import (
	"testing"

	"uu/internal/bench"
	"uu/internal/ir"
	"uu/internal/lang"
)

// FuzzCompileKernel holds the MiniCU frontend (lexer, parser, checker,
// lowerer) to its contract on any source text: it never panics, and when it
// returns no error the function it returns passes ir.Verify.
func FuzzCompileKernel(f *testing.F) {
	for _, b := range bench.Suite {
		f.Add(b.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := lang.CompileKernel(src)
		if err != nil {
			return
		}
		if err := ir.Verify(fn); err != nil {
			t.Fatalf("CompileKernel accepted a source whose IR does not verify: %v\nsource:\n%s", err, src)
		}
	})
}
