package gpusim

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/remark"
)

// Parallel warp scheduling that reproduces the sequential schedule
// byte-for-byte.
//
// The sequential schedule couples warps through exactly two channels:
// shared memory (a warp may read what an earlier warp wrote) and the
// warm-across-warps instruction cache. The parallel path handles both by
// running optimistically and auditing:
//
// Phase A runs every warp concurrently, each against a private copy of
// memory (workers share nothing), recording per warp: its metrics under a
// fully-warm icache, the set of icache lines it touches, the byte ranges
// it reads and writes, and an ordered log of its stores.
//
// The audit then decides:
//
//   - If any warp's read ranges overlap another warp's write ranges, the
//     warp order is semantically meaningful and the optimistic results
//     are invalid. Shared memory is untouched (phase A only wrote private
//     copies), so the run falls back to the exact sequential schedule.
//     This verdict is schedule-independent: a warp's phase-A execution
//     can diverge from its sequential execution only after it reads a
//     byte some other warp writes, and that read/write pair is recorded
//     before the divergence can influence anything — so a conflict is
//     detected in every schedule exactly when one exists in any.
//
//   - Otherwise every warp's phase-A execution is identical to its
//     sequential execution (no read ever observed another warp's write),
//     so per-warp metrics and store values are exact. Phase B walks warps
//     in order, replaying store logs onto shared memory, and fixes up the
//     one remaining cross-warp effect: instruction fetch. A warp whose
//     icache lines were all touched by earlier warps misses nothing under
//     the sequential schedule either — its warm-cache metrics are
//     accepted as-is. A warp that touches any line first is re-run
//     against the accumulated line set, which charges its fetch stalls
//     exactly (the program fits the icache, so lines are never evicted
//     and a miss is precisely a global first touch). Programs that
//     overflow the icache never take the parallel path at all.
//
// Per-warp metrics are integers accumulated with per-warp rounding (as in
// the sequential schedule) and summed in warp order, so the merged totals
// are bit-equal to the sequential ones.
//
// Per-PC profiles ride the same argument. Every profile counter is an
// integer accumulated per executed instruction (fixed-point for the
// fractional cycle counters), so sums are partition-independent: phase A
// collects one profile per worker and they merge by plain addition. A warp
// the audit re-runs had its warm-cache contribution merged already; the
// audit adds its exact counters and then regenerates the warm contribution
// bit-identically — by re-running the warp in warm mode against a snapshot
// of shared memory taken before the audit run (the no-conflict verdict
// guarantees that run reads the same values phase A read) — and subtracts
// it. The result equals the sequential profile byte for byte.

// memWrite is one logged store, replayed in warp order by the audit.
type memWrite struct {
	addr int64
	val  interp.Value
	size int32
	kind uint8
}

const maxSpans = 16

// span is a half-open byte interval [lo, hi).
type span struct {
	lo, hi int64
}

// spanSet is a small sorted set of disjoint byte intervals. Once it would
// exceed maxSpans it merges the two closest intervals; that
// over-approximation can only cause a spurious conflict (a safe
// sequential fallback), never a missed one.
type spanSet struct {
	spans []span
}

func (ss *spanSet) add(lo, hi int64) {
	s := ss.spans
	i := 0
	for i < len(s) && s[i].hi < lo {
		i++
	}
	j := i
	for j < len(s) && s[j].lo <= hi {
		if s[j].lo < lo {
			lo = s[j].lo
		}
		if s[j].hi > hi {
			hi = s[j].hi
		}
		j++
	}
	if i == j {
		s = append(s, span{})
		copy(s[i+1:], s[i:])
		s[i] = span{lo, hi}
	} else {
		s[i] = span{lo, hi}
		s = append(s[:i+1], s[j:]...)
	}
	if len(s) > maxSpans {
		best, bestGap := 1, int64(math.MaxInt64)
		for k := 1; k < len(s); k++ {
			if g := s[k].lo - s[k-1].hi; g < bestGap {
				bestGap, best = g, k
			}
		}
		s[best-1].hi = s[best].hi
		s = append(s[:best], s[best+1:]...)
	}
	ss.spans = s
}

// crossWarpConflict reports whether any warp reads a byte range that a
// different warp writes.
func crossWarpConflict(reads, writes []spanSet) bool {
	type wspan struct {
		lo, hi int64
		warp   int32
	}
	var ws []wspan
	for wi := range writes {
		for _, s := range writes[wi].spans {
			ws = append(ws, wspan{s.lo, s.hi, int32(wi)})
		}
	}
	if len(ws) == 0 {
		return false
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].lo < ws[j].lo })
	// maxHi[i] bounds the reach of ws[0..i], letting the scan below stop
	// early even though intervals from different warps may overlap.
	maxHi := make([]int64, len(ws))
	h := int64(math.MinInt64)
	for i, s := range ws {
		if s.hi > h {
			h = s.hi
		}
		maxHi[i] = h
	}
	for wi := range reads {
		for _, r := range reads[wi].spans {
			idx := sort.Search(len(ws), func(i int) bool { return ws[i].lo >= r.hi })
			for i := idx - 1; i >= 0 && maxHi[i] > r.lo; i-- {
				if ws[i].hi > r.lo && int(ws[i].warp) != wi {
					return true
				}
			}
		}
	}
	return false
}

func runParallel(ctx context.Context, dp *decodedProgram, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, simWarps, total, workers int, m *Metrics, tr *remark.Trace, tid int, prof *Profile) error {
	bw := bitWords(dp.numLines(cfg.ICacheLineInstrs))
	wm := make([]Metrics, simWarps)
	touched := make([]uint64, simWarps*bw)
	errs := make([]error, simWarps)
	reads := make([]spanSet, simWarps)
	writes := make([]spanSet, simWarps)
	logs := make([][]memWrite, simWarps)
	var wprofs []*Profile
	if prof != nil {
		wprofs = make([]*Profile, workers)
	}

	// Phase A: optimistic concurrent execution on private memories. Each
	// worker's whole shard is one trace span; sim-worker lanes nest under
	// the caller's lane as tid*100+1+i (trace layout only — metrics are
	// unaffected).
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			done := tr.Span(tid*100+1+worker, "sim-shard", "gpusim")
			defer done()
			priv := interp.AcquireMemory(int64(len(mem.Data)), mem.Data)
			defer interp.ReleaseMemory(priv)
			w := acquireWarpSim(dp, cfg, priv)
			defer releaseWarpSim(w)
			w.setContext(ctx)
			if prof != nil {
				wprofs[worker] = newProfileN(dp.name, len(dp.instrs))
				w.prof = wprofs[worker]
			}
			for {
				wi := int(next.Add(1)) - 1
				if wi >= simWarps {
					return
				}
				w.touched = touched[wi*bw : (wi+1)*bw]
				w.rSet, w.wSet, w.writeLog = &reads[wi], &writes[wi], &logs[wi]
				first, count := warpBounds(wi, cfg.WarpSize, total)
				errs[wi] = w.run(args, launch, first, count, &wm[wi])
			}
		}(i)
	}
	wg.Wait()

	if crossWarpConflict(reads, writes) {
		// prof was never written in phase A (workers profile into private
		// arrays), so the fallback profiles the exact schedule from scratch.
		tr.Instant(tid, "sim-conflict-fallback", "gpusim", nil)
		return runSequential(ctx, dp, args, mem, launch, cfg, simWarps, total, m, tr, tid, prof)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if prof != nil {
		for _, wp := range wprofs {
			if wp != nil {
				prof.Add(wp)
			}
		}
	}

	// Phase B: in-order audit — replay stores, fix up fetch stalls.
	defer tr.Span(tid, "sim-audit", "gpusim")()
	global := make([]uint64, bw)
	var audit *warpSim
	var rerun *warpSim // warm-mode re-run regenerating phase-A profile contributions
	var rerunProf *Profile
	var scratch *interp.Memory
	defer func() {
		if audit != nil {
			releaseWarpSim(audit)
		}
		if rerun != nil {
			releaseWarpSim(rerun)
			interp.ReleaseMemory(scratch)
		}
	}()
	for wi := 0; wi < simWarps; wi++ {
		wbits := touched[wi*bw : (wi+1)*bw]
		fresh := false
		for k, word := range wbits {
			if word&^global[k] != 0 {
				fresh = true
				break
			}
		}
		if !fresh {
			m.Add(&wm[wi])
			m.Warps++
			for _, wr := range logs[wi] {
				mem.StoreKind(ir.Kind(wr.kind), int64(wr.size), wr.addr, wr.val)
			}
			continue
		}
		// First global touch of some line: re-run this warp against the
		// in-order line set for exact miss accounting. It writes shared
		// memory directly (same values as its log), so no replay.
		if audit == nil {
			audit = acquireWarpSim(dp, cfg, mem)
			audit.setContext(ctx)
			audit.setFetch(fetchBitset, global)
			audit.prof = prof
		}
		// For profiling, snapshot memory before the audit run: the warm
		// re-run below must observe what this warp's phase-A run saw, not
		// the values the audit run is about to store.
		if prof != nil {
			if scratch == nil {
				scratch = interp.AcquireMemory(int64(len(mem.Data)), mem.Data)
				rerunProf = newProfileN(dp.name, len(dp.instrs))
				rerun = acquireWarpSim(dp, cfg, scratch)
				rerun.setFetch(fetchWarm, nil)
				rerun.prof = rerunProf
			} else {
				copy(scratch.Data, mem.Data)
			}
		}
		var rm Metrics
		first, count := warpBounds(wi, cfg.WarpSize, total)
		if err := audit.run(args, launch, first, count, &rm); err != nil {
			return err
		}
		m.Add(&rm)
		m.Warps++
		if prof != nil {
			// The audit run added this warp's exact counters; its optimistic
			// warm-cache contribution (already merged from the worker arrays)
			// is regenerated bit-identically and subtracted.
			rerunProf.Reset()
			var rr Metrics
			if err := rerun.run(args, launch, first, count, &rr); err != nil {
				return err
			}
			prof.Sub(rerunProf)
		}
	}
	return nil
}
