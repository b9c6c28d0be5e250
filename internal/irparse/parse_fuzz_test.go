package irparse_test

import (
	"testing"

	"uu/internal/bench"
	"uu/internal/ir"
	"uu/internal/irparse"
	"uu/internal/pipeline"
)

// FuzzParseFunc holds the textual IR parser, the frontend uud takes IR
// requests through, to its contract on any text: it never panics, and a
// function it parses that passes ir.Verify prints to text that parses back
// and prints to the same text again.
func FuzzParseFunc(f *testing.F) {
	for _, b := range bench.Suite {
		fn, err := b.CompileKernel()
		if err != nil {
			f.Fatalf("%s: %v", b.Name, err)
		}
		f.Add(fn.String())
		pipeline.Canonicalize(fn)
		f.Add(fn.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := irparse.ParseFunc(src)
		if err != nil || ir.Verify(fn) != nil {
			return
		}
		text := fn.String()
		again, err := irparse.ParseFunc(text)
		if err != nil {
			t.Fatalf("printed IR does not parse back: %v\nprinted:\n%s", err, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("print -> parse -> print is not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, got)
		}
	})
}
