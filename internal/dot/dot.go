// Package dot renders IR functions as Graphviz digraphs, in the style of the
// paper's CFG figures: solid edges for true/unconditional branches, dotted
// edges for false branches, loop headers and latches highlighted.
package dot

import (
	"fmt"
	"strings"

	"uu/internal/analysis"
	"uu/internal/ir"
)

// Options selects what the rendering includes.
type Options struct {
	// Instrs includes the full instruction listing inside each node
	// (otherwise only the block name is shown).
	Instrs bool
	// Loops colors loop headers and marks latch back edges.
	Loops bool
	// Labels annotates blocks with extra text (e.g. the Figure 5 condition
	// provenance labels from core.ConditionProvenance).
	Labels map[*ir.Block]string
}

// CFG renders f's control-flow graph.
func CFG(f *ir.Function, opts Options) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  node [shape=box, fontname=monospace];\n", f.Name)

	headerOf := map[*ir.Block]*analysis.Loop{}
	latchSet := map[*ir.Block]bool{}
	if opts.Loops {
		for _, l := range analysis.NewLoopInfo(f, analysis.NewDomTree(f)).Loops {
			headerOf[l.Header] = l
			for _, la := range l.Latches() {
				latchSet[la] = true
			}
		}
	}

	for _, b := range f.Blocks() {
		label := b.Name + "\\l"
		if opts.Instrs {
			var body strings.Builder
			fmt.Fprintf(&body, "%s:\\l", b.Name)
			for _, in := range b.Instrs() {
				line := strings.ReplaceAll(in.String(), "\"", "'")
				fmt.Fprintf(&body, "  %s\\l", line)
			}
			label = body.String()
		}
		if extra, ok := opts.Labels[b]; ok && extra != "" {
			label = "[" + extra + "] " + label
		}
		attrs := fmt.Sprintf("label=\"%s\"", label)
		if l, ok := headerOf[b]; ok {
			attrs += fmt.Sprintf(", style=filled, fillcolor=lightblue, xlabel=\"loop#%d\"", l.ID)
		} else if latchSet[b] {
			attrs += ", style=filled, fillcolor=lightyellow"
		}
		fmt.Fprintf(&sb, "  %q [%s];\n", b.Name, attrs)

		t := b.Term()
		if t == nil {
			continue
		}
		switch t.Op {
		case ir.OpCondBr:
			fmt.Fprintf(&sb, "  %q -> %q [style=solid, label=T];\n", b.Name, t.BlockArg(0).Name)
			fmt.Fprintf(&sb, "  %q -> %q [style=dotted, label=F];\n", b.Name, t.BlockArg(1).Name)
		case ir.OpBr:
			fmt.Fprintf(&sb, "  %q -> %q;\n", b.Name, t.BlockArg(0).Name)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
