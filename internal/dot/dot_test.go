package dot

import (
	"strings"
	"testing"

	"uu/internal/ir"
	"uu/internal/irparse"
)

const loopSrc = `
func @k(i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, i64 %n
  condbr i1 %c, %body, %exit
body:
  %i2 = add i64 %i, i64 1
  br %head
exit:
  ret
}
`

func parseLoop(t *testing.T) *ir.Function {
	t.Helper()
	f, err := irparse.ParseFunc(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCFGBasic(t *testing.T) {
	f := parseLoop(t)
	out := CFG(f, Options{})
	for _, want := range []string{
		`digraph "k"`,
		`"entry" -> "head"`,
		`"head" -> "body" [style=solid, label=T]`,
		`"head" -> "exit" [style=dotted, label=F]`,
		`"body" -> "head"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "phi") {
		t.Errorf("instructions rendered without Instrs option")
	}
}

func TestCFGWithInstrsAndLoops(t *testing.T) {
	f := parseLoop(t)
	out := CFG(f, Options{Instrs: true, Loops: true})
	for _, want := range []string{"phi i64", "fillcolor=lightblue", "loop#0", "fillcolor=lightyellow"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
