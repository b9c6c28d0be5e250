// Package profile turns the simulator's per-PC hotspot counters into
// reports: it joins a gpusim.Profile with the program's line table
// (codegen.Program.Lines) and loop metadata (Program.Loops) to attribute
// modelled cycles to source lines and loops, and renders the result as
// deterministic text tables, folded stacks for flamegraph tools, and a
// gzipped pprof protobuf readable by `go tool pprof`.
//
// All renderings are pure functions of the profile and program; since
// gpusim produces byte-identical profiles for every worker count, so are
// the artifacts written here.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/ir"
)

// LineRow aggregates the counters of every PC sharing one source location
// (line plus clone tags) within one innermost loop.
type LineRow struct {
	Loc  ir.Loc
	Loop int32 // LoopMeta ID of the innermost enclosing loop, -1 when none
	// Counters are the per-PC counters summed over the row's PCs, indexed
	// by gpusim.ProfCounter.
	Counters [gpusim.ProfNumCounters]int64
	// Cycles is the row's modelled cycle total: issue plus exposed
	// dependency stalls (rounded from fixed point) plus fetch stalls.
	Cycles int64
}

// Label renders the row's source location ("L14", "L14.u2.d1", "?").
func (r *LineRow) Label() string { return r.Loc.String() }

// LoopRow aggregates rows per loop of the lowered program.
type LoopRow struct {
	Meta codegen.LoopMeta
	// Self sums cycles of PCs whose innermost loop is this one; Cum also
	// includes every nested loop, so an outer loop's Cum bounds its body.
	Self, Cum int64
	// Counters are the self counters (innermost PCs only).
	Counters [gpusim.ProfNumCounters]int64
}

// Label renders the loop frame name used in stacks ("loop@L12", with clone
// tags when the loop is an unroll/unmerge copy: "loop@L12.u1.d2" — or the
// header block name when the loop has no source anchor).
func (r *LoopRow) Label() string {
	if r.Meta.Line > 0 {
		return "loop@" + r.Meta.Origin().String()
	}
	return "loop@" + r.Meta.Header
}

// Report is the joined, aggregated view of one profiled kernel execution.
type Report struct {
	Kernel string
	// Total sums every counter over all PCs; TotalCycles is the modelled
	// cycle total of the whole kernel.
	Total       [gpusim.ProfNumCounters]int64
	TotalCycles int64
	// Lines is sorted hottest-first (ties broken by source order) and
	// includes every row with any nonzero counter.
	Lines []LineRow
	// Loops is every loop of the program in LoopMeta order (not cycle
	// order: the table renderer sorts a copy), including cold ones.
	Loops []LoopRow
}

// Build joins a profile with its program's line table. prof must have been
// collected for prog (same flat PC indexing).
func Build(prog *codegen.Program, prof *gpusim.Profile) *Report {
	r := &Report{Kernel: prog.Name}
	type key struct {
		loc  ir.Loc
		loop int32
	}
	rows := map[key]*LineRow{}
	for pc := 0; pc < prof.NumPCs() && pc < len(prog.Lines); pc++ {
		li := prog.Lines[pc]
		nonzero := false
		for c := 0; c < int(gpusim.ProfNumCounters); c++ {
			if prof.Counters[c][pc] != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			continue
		}
		k := key{li.Loc, li.Loop}
		row := rows[k]
		if row == nil {
			row = &LineRow{Loc: li.Loc, Loop: li.Loop}
			rows[k] = row
		}
		for c := 0; c < int(gpusim.ProfNumCounters); c++ {
			v := prof.Counters[c][pc]
			row.Counters[c] += v
			r.Total[c] += v
		}
		row.Cycles += prof.Cycles(pc)
	}
	for _, row := range rows {
		r.TotalCycles += row.Cycles
		r.Lines = append(r.Lines, *row)
	}
	sort.Slice(r.Lines, func(i, j int) bool {
		a, b := &r.Lines[i], &r.Lines[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.Loc != b.Loc {
			if a.Loc.Line != b.Loc.Line {
				return a.Loc.Line < b.Loc.Line
			}
			if a.Loc.Iter != b.Loc.Iter {
				return a.Loc.Iter < b.Loc.Iter
			}
			return a.Loc.Dup < b.Loc.Dup
		}
		return a.Loop < b.Loop
	})

	// Loop aggregation: self from the rows, cum by walking parent links.
	r.Loops = make([]LoopRow, len(prog.Loops))
	byID := map[int32]*LoopRow{}
	for i := range prog.Loops {
		r.Loops[i].Meta = prog.Loops[i]
		byID[prog.Loops[i].ID] = &r.Loops[i]
	}
	for i := range r.Lines {
		row := &r.Lines[i]
		lr := byID[row.Loop]
		if lr == nil {
			continue
		}
		lr.Self += row.Cycles
		for c := range row.Counters {
			lr.Counters[c] += row.Counters[c]
		}
		for lr != nil {
			lr.Cum += row.Cycles
			lr = byID[lr.Meta.Parent]
		}
	}
	return r
}

// HottestLoop returns the loop with the highest self cycles, or nil when
// the program has no loops. Self (not cumulative) cycles are the right
// ranking to compare against the heuristic's selection: an outer loop's
// cumulative time always dominates its inner loops', but the body time
// u&u actually transforms is where the cycles are spent — the innermost
// loop's self time, mirroring the heuristic's innermost-first policy.
func (r *Report) HottestLoop() *LoopRow {
	var best *LoopRow
	for i := range r.Loops {
		l := &r.Loops[i]
		if best == nil || l.Self > best.Self ||
			(l.Self == best.Self && (l.Meta.Depth < best.Meta.Depth ||
				(l.Meta.Depth == best.Meta.Depth && l.Meta.ID < best.Meta.ID))) {
			best = l
		}
	}
	return best
}

// loopChain returns the loop rows from outermost to the given loop.
func (r *Report) loopChain(id int32) []*LoopRow {
	var chain []*LoopRow
	for id >= 0 {
		var lr *LoopRow
		for i := range r.Loops {
			if r.Loops[i].Meta.ID == id {
				lr = &r.Loops[i]
				break
			}
		}
		if lr == nil {
			break
		}
		chain = append(chain, lr)
		id = lr.Meta.Parent
	}
	// Reverse: collected innermost-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// WriteHotspots renders the per-loop and per-line hotspot tables as text.
// Output is deterministic: identical profiles produce identical bytes.
func WriteHotspots(w io.Writer, r *Report) error {
	bw := &ErrWriter{W: w}
	fmt.Fprintf(bw, "kernel %s: %d cycles", r.Kernel, r.TotalCycles)
	fmt.Fprintf(bw, " (issue %d, dep_stall %d, fetch_stall %d)\n",
		fpRound(r.Total[gpusim.ProfIssueCycles]),
		fpRound(r.Total[gpusim.ProfDepStall]),
		r.Total[gpusim.ProfFetchStall])

	fmt.Fprintf(bw, "\nloops (hottest bodies first; cum covers the whole nest):\n")
	fmt.Fprintf(bw, "  %-16s %6s %12s %7s %12s %12s %12s\n",
		"loop", "depth", "self_cycles", "self%", "cum_cycles", "divergence", "mem_replay")
	loops := append([]LoopRow(nil), r.Loops...)
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Self != loops[j].Self {
			return loops[i].Self > loops[j].Self
		}
		return loops[i].Meta.ID < loops[j].Meta.ID
	})
	for i := range loops {
		l := &loops[i]
		replay := l.Counters[gpusim.ProfMemTransactions] - l.Counters[gpusim.ProfMemIdeal]
		if replay < 0 {
			replay = 0
		}
		fmt.Fprintf(bw, "  %-16s %6d %12d %6.1f%% %12d %12d %12d\n",
			l.Label(), l.Meta.Depth, l.Self, pct(l.Self, r.TotalCycles), l.Cum,
			l.Counters[gpusim.ProfDivergeEvents], replay)
	}

	fmt.Fprintf(bw, "\nlines (hottest first):\n")
	fmt.Fprintf(bw, "  %-14s %-16s %10s %6s %12s %12s %12s %10s %10s\n",
		"line", "loop", "cycles", "cyc%", "warp_execs", "thread_execs", "dep_stall", "divergence", "mem_tx")
	for i := range r.Lines {
		row := &r.Lines[i]
		loop := "-"
		if lr := r.loopRowByID(row.Loop); lr != nil {
			loop = lr.Label()
		}
		fmt.Fprintf(bw, "  %-14s %-16s %10d %5.1f%% %12d %12d %12d %10d %10d\n",
			row.Label(), loop, row.Cycles, pct(row.Cycles, r.TotalCycles),
			row.Counters[gpusim.ProfWarpExecs], row.Counters[gpusim.ProfThreadExecs],
			fpRound(row.Counters[gpusim.ProfDepStall]),
			row.Counters[gpusim.ProfDivergeEvents],
			row.Counters[gpusim.ProfMemTransactions])
	}
	return bw.Err
}

func (r *Report) loopRowByID(id int32) *LoopRow {
	for i := range r.Loops {
		if r.Loops[i].Meta.ID == id {
			return &r.Loops[i]
		}
	}
	return nil
}

// WriteFolded writes the report as folded stacks — one
// "kernel;loop@L3;loop@L5;L7.u1 cycles" line per hot source line — the
// input format of flamegraph.pl and speedscope. Lines are emitted in
// deterministic (stack-name) order.
func WriteFolded(w io.Writer, r *Report) error {
	type folded struct {
		stack  string
		cycles int64
	}
	var out []folded
	for i := range r.Lines {
		row := &r.Lines[i]
		if row.Cycles == 0 {
			continue
		}
		frames := []string{r.Kernel}
		for _, lr := range r.loopChain(row.Loop) {
			frames = append(frames, lr.Label())
		}
		frames = append(frames, row.Label())
		out = append(out, folded{strings.Join(frames, ";"), row.Cycles})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].stack < out[j].stack })
	bw := &ErrWriter{W: w}
	for _, f := range out {
		fmt.Fprintf(bw, "%s %d\n", f.stack, f.cycles)
	}
	return bw.Err
}

// fpRound converts a fixed-point counter sum to whole cycles.
func fpRound(fp int64) int64 { return (fp + gpusim.ProfFPScale/2) / gpusim.ProfFPScale }

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// ErrWriter latches the first error writing to W, so a renderer can use
// Fprintf freely and report Err once. After an error, writes are dropped.
type ErrWriter struct {
	W   io.Writer
	Err error
}

func (e *ErrWriter) Write(p []byte) (int, error) {
	if e.Err != nil {
		return len(p), nil
	}
	n, err := e.W.Write(p)
	if err != nil {
		e.Err = err
	}
	return n, err
}
