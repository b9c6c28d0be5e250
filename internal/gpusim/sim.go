package gpusim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"time"

	"uu/internal/codegen"
	"uu/internal/freelist"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/remark"
)

// Launch describes the 1-D kernel launch geometry.
type Launch struct {
	GridDim  int // number of thread blocks
	BlockDim int // threads per block
	// SampleWarps, when > 0, simulates only the first SampleWarps warps of
	// the grid and scales all metrics by total/sampled. The warps that are
	// skipped do not touch memory, so sampling is only valid for
	// verification-free timing sweeps.
	SampleWarps int
}

// Threads returns the total thread count.
func (l Launch) Threads() int { return l.GridDim * l.BlockDim }

// MaxWarpSteps bounds per-warp execution when DeviceConfig.MaxWarpSteps is
// zero. It is generous enough that no terminating kernel in this repository
// comes near it; a kernel that exhausts it is looping forever.
const MaxWarpSteps = int64(1) << 34

// ErrCycleBudget reports that a warp executed more instructions than the
// configured step budget allows. A miscompiled terminator or a fuzzer-built
// kernel can loop forever; the budget turns that hang into a diagnosable
// error (match with errors.Is).
var ErrCycleBudget = errors.New("warp step budget exhausted")

// Run executes the program over the launch grid against mem (shared by all
// threads, as global device memory is) and returns the aggregated metrics.
// Warps execute sequentially, which is deterministic and race-free for the
// data-parallel kernels in this repository; __syncthreads is a no-op under
// this schedule (kernels relying on cross-warp shared-memory communication
// are out of scope).
func Run(p *codegen.Program, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig) (*Metrics, error) {
	return RunWorkers(p, args, mem, launch, cfg, 1)
}

// RunWorkers is Run with an explicit warp-scheduling worker count
// (workers <= 0 means GOMAXPROCS). Metrics and final memory are identical
// for every worker count — workers only changes wall clock. See
// parallel.go for how the parallel schedule reproduces the sequential
// one exactly (and falls back to it when it cannot).
//
// Two parallel-mode caveats, both confined to runs that fail anyway: on
// error, shared memory is left unmodified (the sequential schedule stops
// at the failing warp with every earlier warp's writes applied), and the
// error returned is deterministically the failing warp with the lowest
// index. Every error path discards results, so no caller observes the
// difference.
func RunWorkers(p *codegen.Program, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, workers int) (*Metrics, error) {
	return RunWorkersTraced(p, args, mem, launch, cfg, workers, nil, 0)
}

// RunWorkersTraced is RunWorkers additionally recording trace spans (the
// launch, each warp batch) and a final metrics counter sample into tr on
// lane tid. A nil tr disables all trace work; metrics are byte-identical
// with and without tracing.
func RunWorkersTraced(p *codegen.Program, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, workers int, tr *remark.Trace, tid int) (*Metrics, error) {
	return RunWorkersProfiled(p, args, mem, launch, cfg, workers, tr, tid, nil)
}

// RunWorkersProfiled is RunWorkersTraced additionally accumulating per-PC
// hotspot counters into prof, which must be nil or sized for p
// (NewProfile). Profiles, like metrics, are byte-identical for every worker
// count: the optimistic parallel schedule merges integer per-warp
// contributions and replaces the warm-cache contribution of each
// first-touch warp with its exact re-run (see parallel.go). A nil prof
// disables all profile work.
func RunWorkersProfiled(p *codegen.Program, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, workers int, tr *remark.Trace, tid int, prof *Profile) (*Metrics, error) {
	return RunWorkersProfiledCtx(context.Background(), p, args, mem, launch, cfg, workers, tr, tid, prof)
}

// RunWorkersProfiledCtx is RunWorkersProfiled under a context: cancellation
// (a request deadline, a client disconnect, SIGINT) is checked at warp-block
// boundaries alongside the MaxWarpSteps budget, so a runaway or merely slow
// simulation stops within one basic block of the cancel instead of running
// to completion. The returned error wraps ctx's error (match with
// errors.Is(err, context.Canceled/DeadlineExceeded)); like every error path,
// cancellation discards metrics and leaves shared memory unmodified in
// parallel mode. A Background (or otherwise non-cancelable) context costs
// one nil check per block.
func RunWorkersProfiledCtx(ctx context.Context, p *codegen.Program, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, workers int, tr *remark.Trace, tid int, prof *Profile) (*Metrics, error) {
	if len(args) != len(p.ParamRegs) {
		return nil, fmt.Errorf("gpusim: kernel %s expects %d args, got %d", p.Name, len(p.ParamRegs), len(args))
	}
	dp, err := decoded(p)
	if err != nil {
		return nil, err
	}
	total := launch.Threads()
	totalWarps := (total + cfg.WarpSize - 1) / cfg.WarpSize
	simWarps := totalWarps
	if launch.SampleWarps > 0 && launch.SampleWarps < totalWarps {
		simWarps = launch.SampleWarps
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > simWarps {
		workers = simWarps
	}
	fits := dp.numLines(cfg.ICacheLineInstrs) <= cfg.ICacheLines
	m := &Metrics{}
	start := time.Now()
	if workers <= 1 || !fits {
		err = runSequential(ctx, dp, args, mem, launch, cfg, simWarps, total, m, tr, tid, prof)
	} else {
		err = runParallel(ctx, dp, args, mem, launch, cfg, simWarps, total, workers, m, tr, tid, prof)
	}
	if tr.Enabled() {
		tr.Complete(tid, "sim:"+dp.name, "gpusim", start, time.Since(start), map[string]any{
			"warps":   simWarps,
			"workers": workers,
		})
	}
	if err != nil {
		return nil, err
	}
	if simWarps < totalWarps {
		k := float64(totalWarps) / float64(simWarps)
		m.Scale(k)
		if prof != nil {
			prof.Scale(k)
		}
	}
	if tr.Enabled() {
		tr.Counter(tid, "gpusim:"+dp.name, map[string]float64{
			"cycles":                    float64(m.Cycles),
			"warp_instrs":               float64(m.WarpInstrs),
			"thread_instrs":             float64(m.ThreadInstrs),
			"warp_execution_efficiency": m.WarpExecutionEfficiency(cfg),
			"gld_transactions":          float64(m.GldTransactions),
			"gst_transactions":          float64(m.GstTransactions),
			"stall_inst_fetch":          float64(m.StallInstFetch),
			"dep_stall_cycles":          float64(m.DepStallCycles),
		})
	}
	return m, nil
}

// simBatchWarps is how many warps one sequential-mode trace span covers.
const simBatchWarps = 256

func warpBounds(wi, warpSize, total int) (first, count int) {
	first = wi * warpSize
	count = warpSize
	if first+count > total {
		count = total - first
	}
	return first, count
}

func bitWords(n int) int { return (n + 63) / 64 }

func runSequential(ctx context.Context, dp *decodedProgram, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, simWarps, total int, m *Metrics, tr *remark.Trace, tid int, prof *Profile) error {
	w := acquireWarpSim(dp, cfg, mem)
	defer releaseWarpSim(w)
	w.setContext(ctx)
	w.prof = prof
	if dp.numLines(cfg.ICacheLineInstrs) <= cfg.ICacheLines {
		w.setFetch(fetchBitset, nil)
	} else {
		w.setFetch(fetchLRU, nil)
	}
	batchStart := time.Time{}
	if tr.Enabled() {
		batchStart = time.Now()
	}
	for wi := 0; wi < simWarps; wi++ {
		first, count := warpBounds(wi, cfg.WarpSize, total)
		if err := w.run(args, launch, first, count, m); err != nil {
			return err
		}
		m.Warps++
		if tr.Enabled() && ((wi+1)%simBatchWarps == 0 || wi == simWarps-1) {
			lo := wi + 1 - (wi % simBatchWarps) - 1
			tr.Complete(tid, fmt.Sprintf("warps[%d:%d]", lo, wi+1), "gpusim", batchStart,
				time.Since(batchStart), nil)
			batchStart = time.Now()
		}
	}
	return nil
}

// Instruction-fetch accounting modes; see RunWorkers.
const (
	fetchWarm   uint8 = iota // record touched lines, charge nothing
	fetchBitset              // miss = first touch (program fits the icache)
	fetchLRU                 // full LRU model (program overflows the icache)
)

type warpSim struct {
	class warpSimClass // what the register files below are sized for

	dp  *decodedProgram
	cfg DeviceConfig
	mem *interp.Memory

	nregs int
	regs  []interp.Value // [lane*nregs + reg] (switch core only)
	ready []float64      // scoreboard: cycle at which each register's value is available

	// Threaded-core state (cfg.Exec == ExecThreaded; see threaded.go). The
	// SoA register files store each register as WarpSize consecutive lanes
	// so block closures run contiguous 32-lane inner loops; regsI/regsF
	// replace the boxed file above, and the extra registers past
	// dp.numRegs hold the program's pooled immediates, broadcast once at
	// construction.
	tp      *threadedProgram
	laneW   int       // stride between registers in the SoA files
	nLanes  int       // threads in the current warp
	runMask uint32    // full-warp mask of the current warp
	regsI   []int64   // [reg*laneW + lane]
	regsF   []float64 // [reg*laneW + lane]
	ntidV   int64
	nctaidV int64
	m       *Metrics // metrics of the warp in flight (closures append here)
	memErr  error    // out-of-bounds fault raised inside a closure
	// Per-block control-flow outcome, written by terminator closures and
	// read back by the block loop exactly as the switch core's locals are.
	nextPC   int
	branched bool
	exited   uint32
	brTaken  uint32
	brNot    uint32
	// eng is the divergence-management backend (DeviceConfig.Policy): it
	// owns the reconvergence state and decides which (block, mask) runs
	// next; the executor below only runs whole blocks and reports each
	// block's control-flow outcome back to it.
	eng policyEngine
	// engines holds the engine of each policy this warpSim has run, so a
	// recycled warpSim reuses their stacks; eng is engines[cfg.Policy].
	engines [numPolicies]policyEngine

	// instruction cache state, interpreted per fetchMode
	lines     []int32 // global instruction index -> icache line
	fetchMode uint8
	touched   []uint64
	// ownTouched backs touched when no caller-owned set is supplied.
	ownTouched []uint64
	lru        lruICache
	// blockSeen[b] records (threaded core, fetchBitset mode only) that every
	// line of block b has been fetched once; touched bits never clear, so
	// once set the whole per-instruction fetch check provably charges zero
	// and steady-state blocks skip it. Never set in warm/LRU modes.
	blockSeen []bool

	lanesTID []int32
	lanesCTA []int32
	addrBuf  []int64 // scratch: active lanes' addresses, lane order
	segBuf   []segSpan
	// segShift is log2(cfg.SegmentBytes) when that is a power of two, else
	// -1: access shifts instead of dividing where the two agree.
	segShift int

	// optimistic-parallel instrumentation (nil in sequential mode):
	// per-warp byte ranges read/written and the ordered store log the
	// audit pass replays — see parallel.go
	rSet     *spanSet
	wSet     *spanSet
	writeLog *[]memWrite

	// prof, when non-nil, accumulates per-PC hotspot counters. The arrays
	// are preallocated (NewProfile), so profiling keeps the warp loop
	// allocation-free; a nil prof costs one predictable branch per site.
	prof *Profile

	// done is the cancellation signal of the launch's context, polled at
	// block boundaries (see checkCanceled). A nil done (Background context,
	// benchmarks, tests) reduces the whole check to one nil comparison per
	// block; ctx is retained only to report the cancellation cause.
	done <-chan struct{}
	ctx  context.Context

	scale  [33]float64 // issue scale by active-lane count
	latTab [4]float64  // scoreboard latency by latClass
}

// warpSimClass is what a warpSim's register files are sized for: the
// executor (the two keep different files), the warp width, and the register
// count rounded up to a power of two. Run state is recycled only within its
// class (see package freelist), so the files always fit.
type warpSimClass struct {
	exec ExecKind
	warp int
	regs int
}

func classOf(dp *decodedProgram, cfg DeviceConfig) warpSimClass {
	n := dp.numRegs
	if cfg.Exec == ExecThreaded {
		n = dp.threadedProg().numRegs // the pooled immediates are registers too
	}
	return warpSimClass{cfg.Exec, cfg.WarpSize, 1 << bits.Len(uint(max(n, 1)-1))}
}

// newWarpSim builds fresh run state for executing dp on cfg against mem.
func newWarpSim(dp *decodedProgram, cfg DeviceConfig, mem *interp.Memory) *warpSim {
	c := classOf(dp, cfg)
	w := &warpSim{class: c, ready: make([]float64, c.regs)}
	if c.exec == ExecThreaded {
		w.regsI = make([]int64, c.warp*c.regs)
		w.regsF = make([]float64, c.warp*c.regs)
	} else {
		w.regs = make([]interp.Value, c.warp*c.regs)
	}
	w.init(dp, cfg, mem)
	return w
}

// maxFreeWarpSims bounds the run-state free list: a campaign holds
// Workers x (SimWorkers + 2) warpSims at once, a uud one per pool worker,
// over a handful of classes; past the bound the oldest is dropped.
const maxFreeWarpSims = 16

var freeWarpSims = freelist.New[warpSimClass, *warpSim](maxFreeWarpSims)

// acquireWarpSim returns run state for executing dp on cfg against mem. The
// warpSim may be a recycled one — register files, scoreboard, scratch and
// policy engines keep their capacity between runs, which is what makes a
// repeat execution allocation-free — but init re-derives everything else
// from (dp, cfg, mem) alone, so a run never depends on what the state ran
// before, including a run that faulted, exhausted its budget or was
// cancelled part-way. Hand the state back with releaseWarpSim.
func acquireWarpSim(dp *decodedProgram, cfg DeviceConfig, mem *interp.Memory) *warpSim {
	w, ok := freeWarpSims.Take(classOf(dp, cfg))
	if !ok {
		return newWarpSim(dp, cfg, mem)
	}
	w.init(dp, cfg, mem)
	return w
}

// releaseWarpSim retires w to the free list, stripped of every reference to
// the run it served so a parked warpSim pins no program, memory, profile or
// context.
func releaseWarpSim(w *warpSim) {
	w.strip()
	freeWarpSims.Put(w.class, w)
}

// strip resets w to the zero warpSim that owns w's buffers: the arrays (for
// their capacity) and the policy engines (for their stacks) are all a run
// leaves behind.
func (w *warpSim) strip() {
	for _, e := range w.engines {
		if e != nil {
			e.bind(nil)
		}
	}
	*w = warpSim{
		class: w.class, regs: w.regs, ready: w.ready, regsI: w.regsI, regsF: w.regsF,
		engines: w.engines, ownTouched: w.ownTouched, lru: w.lru, blockSeen: w.blockSeen,
		lanesTID: w.lanesTID, lanesCTA: w.lanesCTA, addrBuf: w.addrBuf, segBuf: w.segBuf,
	}
}

// zeroed returns s with length n and every element cleared, reusing its
// array when the capacity allows.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// init prepares w — a new or stripped warpSim of dp and cfg's class — for one
// run. Every buffer is resized to this run's needs and either cleared or
// documented as overwritten before its first read; everything else starts
// from zero — including the fetch mode (fetchWarm, no line set), which
// every caller follows up with setFetch or, per warp, its own slice of a
// shared set (runParallel phase A).
func (w *warpSim) init(dp *decodedProgram, cfg DeviceConfig, mem *interp.Memory) {
	w.dp, w.cfg, w.mem, w.nregs = dp, cfg, mem, dp.numRegs
	if cfg.Exec == ExecThreaded {
		tp := dp.threadedProg()
		w.tp = tp
		w.laneW = cfg.WarpSize
		// The real registers are cleared at the start of every warp
		// (runThreaded); the pooled immediates live past dp.numRegs, never
		// change during a run, and are broadcast to every lane here.
		w.regsI = w.regsI[:cfg.WarpSize*tp.numRegs]
		w.regsF = w.regsF[:cfg.WarpSize*tp.numRegs]
		w.blockSeen = zeroed(w.blockSeen, len(dp.blockStart))
		for ci, v := range tp.consts {
			base := (dp.numRegs + ci) * cfg.WarpSize
			for lane := 0; lane < cfg.WarpSize; lane++ {
				w.regsI[base+lane] = v.I
				w.regsF[base+lane] = v.F
			}
		}
	} else {
		// Cleared per warp for the lanes in use (runSwitch).
		w.regs = w.regs[:cfg.WarpSize*dp.numRegs]
	}
	w.ready = w.ready[:dp.numRegs]
	clear(w.ready)
	if w.engines[cfg.Policy] == nil {
		w.engines[cfg.Policy] = newPolicyEngine(cfg.Policy)
	}
	w.eng = w.engines[cfg.Policy]
	w.eng.bind(dp)
	w.lines = dp.lines(cfg.ICacheLineInstrs)
	w.lanesTID = zeroed(w.lanesTID, cfg.WarpSize)
	w.lanesCTA = zeroed(w.lanesCTA, cfg.WarpSize)
	w.addrBuf = zeroed(w.addrBuf, cfg.WarpSize)
	w.segBuf = zeroed(w.segBuf, cfg.WarpSize)
	w.segShift = -1
	if sb := cfg.SegmentBytes; sb > 0 && sb&(sb-1) == 0 {
		w.segShift = bits.TrailingZeros64(uint64(sb))
	}
	for n := 0; n <= cfg.WarpSize && n < len(w.scale); n++ {
		frac := float64(n) / float64(cfg.WarpSize)
		w.scale[n] = 1 - cfg.ITSOverlap*(1-frac)
	}
	w.latTab = [4]float64{cfg.MemLoadLatency, 24, 20, 5}
}

// setFetch selects the instruction-fetch accounting mode. touched is the
// line bitset to account against when the caller owns one (the parallel
// schedule's per-warp and in-order sets); nil gives the warpSim a zeroed
// set of its own, and fetchLRU an empty cache.
func (w *warpSim) setFetch(mode uint8, touched []uint64) {
	w.fetchMode = mode
	w.touched = touched
	numLines := w.dp.numLines(w.cfg.ICacheLineInstrs)
	switch {
	case mode == fetchLRU:
		w.lru.init(numLines, w.cfg.ICacheLines)
	case touched == nil:
		w.ownTouched = zeroed(w.ownTouched, bitWords(numLines))
		w.touched = w.ownTouched
	}
}

// setContext arms block-boundary cancellation polling for this warp
// simulator. Background and other never-canceled contexts arm nothing
// (Done() returns nil), keeping the hot loop free of channel operations.
func (w *warpSim) setContext(ctx context.Context) {
	if ctx == nil {
		return
	}
	w.done = ctx.Done()
	w.ctx = ctx
}

// canceled reports whether the launch's context has fired. It is called at
// block boundaries, next to the step-budget check: both turn unbounded work
// (an infinite loop, a caller that went away) into a prompt diagnosable
// error instead of a stuck warp.
func (w *warpSim) canceled() bool {
	if w.done == nil {
		return false
	}
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// cancelErr builds the error reported for a canceled warp, wrapping the
// context's cause so callers can errors.Is against context.Canceled or
// context.DeadlineExceeded.
func (w *warpSim) cancelErr(steps int64) error {
	return fmt.Errorf("gpusim: %s canceled after %d steps: %w", w.dp.name, steps, w.ctx.Err())
}

// srcVal reads an operand for the lane whose register block starts at
// base. It is a free function over the register slice (rather than a
// method) so the hot loops below can hoist w.regs into a local and keep
// the read inlinable.
func srcVal(regs []interp.Value, base int, s *dSrc) interp.Value {
	if s.reg < 0 {
		return s.imm
	}
	return regs[base+int(s.reg)]
}

// run executes one warp on the backend cfg.Exec selected. The steady-state
// path of both backends performs no heap allocations: all per-warp state
// lives in reusable buffers sized at construction (the reconvergence stack
// may grow once on unusually deep divergence, then keeps its capacity).
func (w *warpSim) run(args []interp.Value, launch Launch, firstThread, count int, m *Metrics) error {
	if w.tp != nil {
		return w.runThreaded(args, launch, firstThread, count, m)
	}
	return w.runSwitch(args, launch, firstThread, count, m)
}

// fetchStallSlow is the icache model for the fetchWarm and fetchLRU
// fetch modes, returning the stall cycles to charge. The fetchBitset fast
// path is spelled out at both executors' per-instruction call sites (it is
// too hot to pay a function call), identically, so the backends price
// fetches the same way.
func (w *warpSim) fetchStallSlow(line int32) int64 {
	if w.fetchMode == fetchWarm {
		w.touched[line>>6] |= 1 << uint(line&63)
		return 0
	}
	if w.lru.fetch(line) {
		return w.cfg.ICacheMissCycles
	}
	return 0
}

// runSwitch is the pre-decoded dispatch-switch core (ExecSwitch).
func (w *warpSim) runSwitch(args []interp.Value, launch Launch, firstThread, count int, m *Metrics) error {
	cfg := w.cfg
	dp := w.dp
	nr := w.nregs
	prof := w.prof
	// Reset per-warp state.
	for lane := 0; lane < count; lane++ {
		regs := w.regs[lane*nr : lane*nr+nr]
		for i := range regs {
			regs[i] = interp.Value{}
		}
		for pi, r := range dp.paramRegs {
			regs[r] = args[pi]
		}
		gid := firstThread + lane
		w.lanesTID[lane] = int32(gid % launch.BlockDim)
		w.lanesCTA[lane] = int32(gid / launch.BlockDim)
	}
	for i := range w.ready {
		w.ready[i] = 0
	}
	// 32 here is the mask word width, not the warp size: count is at most
	// cfg.WarpSize, so narrow-warp devices (WarpSize < 32) always take the
	// partial-mask path and full warps on them get exactly WarpSize bits.
	fullMask := ^uint32(0)
	if count < 32 {
		fullMask = 1<<uint(count) - 1
	}
	ntid := interp.IntVal(int64(launch.BlockDim))
	nctaid := interp.IntVal(int64(launch.GridDim))

	eng := w.eng
	eng.reset(prof, fullMask)
	var steps int64
	budget := cfg.MaxWarpSteps
	if budget <= 0 {
		budget = MaxWarpSteps
	}
	var cycles float64   // warp issue clock
	var stallAcc float64 // exposed dependency stalls (metrics only)
	for {
		blkIdx, active, ok := eng.next()
		if !ok {
			break
		}
		if w.canceled() {
			return w.cancelErr(steps)
		}
		start, end := dp.blockStart[blkIdx], dp.blockEnd[blkIdx]
		nActive := bits.OnesCount32(active)
		iss := w.scale[nActive]
		var brTaken, brNot uint32
		branched := false
		exited := uint32(0)
		nextPC := -2
		for gi := start; gi < end; gi++ {
			in := &dp.instrs[gi]
			steps++
			if steps > budget {
				return fmt.Errorf("gpusim: %s after %d steps: %w", dp.name, steps-1, ErrCycleBudget)
			}
			// Fetch: icache model on the global instruction index.
			var fc int64
			if line := w.lines[gi]; w.fetchMode == fetchBitset {
				word, bit := line>>6, uint64(1)<<uint(line&63)
				if w.touched[word]&bit == 0 {
					w.touched[word] |= bit
					fc = cfg.ICacheMissCycles
				}
			} else {
				fc = w.fetchStallSlow(line)
			}
			if fc != 0 {
				m.StallInstFetch += fc
				cycles += float64(fc)
				if prof != nil {
					prof.Counters[ProfFetchStall][gi] += fc
				}
			}

			m.WarpInstrs++
			m.ActiveSum += int64(nActive)
			m.ThreadInstrs += int64(nActive)
			m.ClassThread[in.class] += int64(nActive)
			if prof != nil {
				prof.Counters[ProfWarpExecs][gi]++
				prof.Counters[ProfThreadExecs][gi] += int64(nActive)
			}

			// Scoreboard: charge issue plus the exposed fraction of
			// dependency stalls. Sub-warp stalls overlap with sibling paths
			// and other warps (independent thread scheduling), so they scale
			// like issue.
			dep := 0.0
			for si := uint8(0); si < in.nSrcs; si++ {
				if r := in.srcs[si].reg; r >= 0 {
					if t := w.ready[r]; t > dep {
						dep = t
					}
				}
			}
			if stall := dep - cycles; stall > 0 {
				exposed := stall * cfg.StallExposure * iss
				cycles += exposed
				stallAcc += exposed
				if prof != nil {
					prof.Counters[ProfDepStall][gi] += profFP(exposed)
				}
			}
			cycles += in.issue * iss
			if prof != nil {
				prof.Counters[ProfIssueCycles][gi] += profFP(in.issue * iss)
			}
			if in.dst >= 0 {
				w.ready[in.dst] = cycles + w.latTab[in.latClass]
			}

			switch in.exec {
			case xBra:
				nextPC = int(in.t0)
			case xRet:
				exited = active
				nextPC = -1
			case xCondBra:
				s := &in.srcs[0]
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					if srcVal(w.regs, lane*nr, s).I != 0 {
						brTaken |= 1 << uint(lane)
					} else {
						brNot |= 1 << uint(lane)
					}
				}
				branched = true
			case xLd:
				n := w.gatherAddrs(active, &in.srcs[0])
				if w.rSet != nil {
					lo, hi := addrRange(w.addrBuf[:n], in.memSize)
					w.rSet.add(lo, hi)
				}
				cost, ntx := w.access(n, in.memSize, true, m)
				cycles += cost
				if prof != nil {
					prof.Counters[ProfMemTransactions][gi] += ntx
					prof.Counters[ProfMemIdeal][gi] += idealTransactions(n, in.memSize, cfg.SegmentBytes)
				}
				dst := int(in.dst)
				k := ir.Kind(in.memKind)
				ai := 0
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					addr := w.addrBuf[ai]
					ai++
					v, ok := w.mem.LoadKind(k, in.memSize, addr)
					if !ok {
						_, err := w.mem.Load(in.typ, addr)
						return fmt.Errorf("gpusim: %s: %w", dp.name, err)
					}
					w.regs[lane*nr+dst] = v
				}
			case xSt:
				n := w.gatherAddrs(active, &in.srcs[1])
				if w.wSet != nil {
					lo, hi := addrRange(w.addrBuf[:n], in.memSize)
					w.wSet.add(lo, hi)
				}
				cost, ntx := w.access(n, in.memSize, false, m)
				cycles += cost
				if prof != nil {
					prof.Counters[ProfMemTransactions][gi] += ntx
					prof.Counters[ProfMemIdeal][gi] += idealTransactions(n, in.memSize, cfg.SegmentBytes)
				}
				k := ir.Kind(in.memKind)
				ai := 0
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					addr := w.addrBuf[ai]
					ai++
					v := srcVal(w.regs, lane*nr, &in.srcs[0])
					if !w.mem.StoreKind(k, in.memSize, addr, v) {
						err := w.mem.Store(in.typ, addr, v)
						return fmt.Errorf("gpusim: %s: %w", dp.name, err)
					}
					if w.writeLog != nil {
						*w.writeLog = append(*w.writeLog, memWrite{addr: addr, val: v, size: int32(in.memSize), kind: in.memKind})
					}
				}
			case xBar:
				// No-op under sequential warp scheduling.
			case xTID:
				dst := int(in.dst)
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					w.regs[lane*nr+dst] = interp.IntVal(int64(w.lanesTID[lane]))
				}
			case xNTID:
				dst := int(in.dst)
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					w.regs[lane*nr+dst] = ntid
				}
			case xCTAID:
				dst := int(in.dst)
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					w.regs[lane*nr+dst] = interp.IntVal(int64(w.lanesCTA[lane]))
				}
			case xNCTAID:
				dst := int(in.dst)
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					w.regs[lane*nr+dst] = nctaid
				}
			// The remaining cases are scalar per-lane ops. The frequent
			// ones get dedicated lane loops (dispatch once per
			// instruction, not once per lane); the long tail falls
			// through to evalScalar.
			case xMov:
				regs := w.regs
				dst := int(in.dst)
				if s := &in.srcs[0]; s.reg < 0 {
					v := s.imm
					for rem := active; rem != 0; rem &= rem - 1 {
						regs[bits.TrailingZeros32(rem)*nr+dst] = v
					}
				} else {
					sr := int(s.reg)
					for rem := active; rem != 0; rem &= rem - 1 {
						base := bits.TrailingZeros32(rem) * nr
						regs[base+dst] = regs[base+sr]
					}
				}
			case xSelp:
				regs := w.regs
				dst := int(in.dst)
				s0, s1, s2 := &in.srcs[0], &in.srcs[1], &in.srcs[2]
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					if srcVal(regs, base, s0).I != 0 {
						regs[base+dst] = srcVal(regs, base, s1)
					} else {
						regs[base+dst] = srcVal(regs, base, s2)
					}
				}
			case xSetpI:
				// Specialized like the arithmetic arms: the pred dispatch
				// is hoisted out of the lane loop (evalICmp is too big to
				// inline here and a call per lane costs ~7% on divergent
				// kernels); the generic kernel serves evalScalar and the
				// threaded core's unspecialized loops.
				regs := w.regs
				dst := int(in.dst)
				s0, s1 := &in.srcs[0], &in.srcs[1]
				pred, aux := in.pred, in.aux
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					a, b := srcVal(regs, base, s0).I, srcVal(regs, base, s1).I
					var r bool
					switch pred {
					case ir.EQ:
						r = a == b
					case ir.NE:
						r = a != b
					case ir.SLT:
						r = a < b
					case ir.SLE:
						r = a <= b
					case ir.SGT:
						r = a > b
					case ir.SGE:
						r = a >= b
					case ir.ULT:
						r = uint64(a)&aux < uint64(b)&aux
					case ir.ULE:
						r = uint64(a)&aux <= uint64(b)&aux
					case ir.UGT:
						r = uint64(a)&aux > uint64(b)&aux
					case ir.UGE:
						r = uint64(a)&aux >= uint64(b)&aux
					}
					regs[base+dst] = boolVal(r)
				}
			case xSExt:
				regs := w.regs
				dst := int(in.dst)
				s := &in.srcs[0]
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					regs[base+dst] = interp.IntVal(srcVal(regs, base, s).I)
				}
			case xAdd:
				regs := w.regs
				dst := int(in.dst)
				s0, s1 := &in.srcs[0], &in.srcs[1]
				tr := in.trunc
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					r := srcVal(regs, base, s0).I + srcVal(regs, base, s1).I
					regs[base+dst] = interp.IntVal(truncTag(tr, r))
				}
			case xSub:
				regs := w.regs
				dst := int(in.dst)
				s0, s1 := &in.srcs[0], &in.srcs[1]
				tr := in.trunc
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					r := srcVal(regs, base, s0).I - srcVal(regs, base, s1).I
					regs[base+dst] = interp.IntVal(truncTag(tr, r))
				}
			case xMul:
				regs := w.regs
				dst := int(in.dst)
				s0, s1 := &in.srcs[0], &in.srcs[1]
				tr := in.trunc
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					r := srcVal(regs, base, s0).I * srcVal(regs, base, s1).I
					regs[base+dst] = interp.IntVal(truncTag(tr, r))
				}
			case xAnd:
				regs := w.regs
				dst := int(in.dst)
				s0, s1 := &in.srcs[0], &in.srcs[1]
				tr := in.trunc
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					r := srcVal(regs, base, s0).I & srcVal(regs, base, s1).I
					regs[base+dst] = interp.IntVal(truncTag(tr, r))
				}
			case xShl:
				regs := w.regs
				dst := int(in.dst)
				s0, s1 := &in.srcs[0], &in.srcs[1]
				tr, aux := in.trunc, in.aux
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					r := srcVal(regs, base, s0).I << (uint64(srcVal(regs, base, s1).I) & aux)
					regs[base+dst] = interp.IntVal(truncTag(tr, r))
				}
			case xFAdd:
				regs := w.regs
				dst := int(in.dst)
				s0, s1 := &in.srcs[0], &in.srcs[1]
				rnd := in.rndF32
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					r := srcVal(regs, base, s0).F + srcVal(regs, base, s1).F
					if rnd {
						r = float64(float32(r))
					}
					regs[base+dst] = interp.FloatVal(r)
				}
			case xFSub:
				regs := w.regs
				dst := int(in.dst)
				s0, s1 := &in.srcs[0], &in.srcs[1]
				rnd := in.rndF32
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					r := srcVal(regs, base, s0).F - srcVal(regs, base, s1).F
					if rnd {
						r = float64(float32(r))
					}
					regs[base+dst] = interp.FloatVal(r)
				}
			case xFMul:
				regs := w.regs
				dst := int(in.dst)
				s0, s1 := &in.srcs[0], &in.srcs[1]
				rnd := in.rndF32
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					r := srcVal(regs, base, s0).F * srcVal(regs, base, s1).F
					if rnd {
						r = float64(float32(r))
					}
					regs[base+dst] = interp.FloatVal(r)
				}
			default:
				dst := int(in.dst)
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					base := lane * nr
					w.regs[base+dst] = w.evalScalar(in, base)
				}
			}
		}

		switch {
		case nextPC == -1: // ret
			eng.retire(exited)
		case branched:
			eng.branch(blkIdx, brTaken, brNot)
		default:
			eng.jump(nextPC)
		}
	}
	m.Cycles += int64(cycles + 0.5)
	m.DepStallCycles += int64(stallAcc + 0.5)
	return nil
}

// gatherAddrs evaluates the address operand for every active lane into
// addrBuf (in lane order) and returns how many there are.
func (w *warpSim) gatherAddrs(active uint32, s *dSrc) int {
	n := 0
	if s.reg < 0 {
		imm := s.imm.I
		for rem := active; rem != 0; rem &= rem - 1 {
			w.addrBuf[n] = imm
			n++
		}
		return n
	}
	r := int(s.reg)
	nr := w.nregs
	for rem := active; rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		w.addrBuf[n] = w.regs[lane*nr+r].I
		n++
	}
	return n
}

// addrRange returns the half-open byte range [lo, hi) covered by a warp
// memory access with the given per-lane addresses.
func addrRange(addrs []int64, size int64) (lo, hi int64) {
	lo, hi = addrs[0], addrs[0]
	for _, a := range addrs[1:] {
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	return lo, hi + size
}

// segSpan is the closed segment interval [first, last] one lane's access
// covers.
type segSpan struct {
	first, last int64
}

// access applies the coalescing model: the warp's addresses (the first n
// entries of addrBuf) split into SegmentBytes segments; each distinct
// segment is one transaction paying a bandwidth cost (latency is modelled
// by the scoreboard, not here). It returns the bandwidth cycles for the
// caller's clock plus the transaction count for the per-PC profile.
// Distinct segments are counted by sorting the per-lane segment intervals
// and sweeping their union — no per-access set.
//
// Segment indices are address / SegmentBytes, truncating toward zero. For a
// power-of-two segment and non-negative byte addresses that is a right
// shift, which is what every in-bounds access takes; a negative address (an
// access about to fault) or an odd segment size keeps the division, so the
// counts of a faulting run are what they always were.
func (w *warpSim) access(n int, size int64, isLoad bool, m *Metrics) (float64, int64) {
	addrs := w.addrBuf[:n]
	segs := w.segBuf[:n]
	sorted := true
	sign := int64(-1) // stays negative when the shift does not apply
	if sh := w.segShift; sh >= 0 {
		sign = 0
		prev := int64(math.MinInt64)
		for i, a := range addrs {
			end := a + size - 1
			sign |= a | end
			first := a >> uint(sh)
			segs[i] = segSpan{first, end >> uint(sh)}
			if first < prev {
				sorted = false
			}
			prev = first
		}
	}
	if sign < 0 {
		sb := w.cfg.SegmentBytes
		for i, a := range addrs {
			segs[i] = segSpan{a / sb, (a + size - 1) / sb}
		}
		sorted = false
	}
	if !sorted {
		// Insertion sort by first segment: n <= warp size and warps are
		// usually nearly sorted already.
		for i := 1; i < len(segs); i++ {
			s := segs[i]
			j := i - 1
			for j >= 0 && segs[j].first > s.first {
				segs[j+1] = segs[j]
				j--
			}
			segs[j+1] = s
		}
	}
	var count int64
	covered := int64(math.MinInt64) // highest segment counted so far
	for _, s := range segs {
		if s.first > covered {
			count += s.last - s.first + 1
			covered = s.last
		} else if s.last > covered {
			count += s.last - covered
			covered = s.last
		}
	}
	bytes := int64(n) * size
	if isLoad {
		m.GldTransactions += count
		m.GldBytes += bytes
	} else {
		m.GstTransactions += count
		m.GstBytes += bytes
	}
	return float64(count * w.cfg.MemPerTransaction), count
}

// truncTag truncates v per the decoded truncation tag (the canonical
// in-register form: narrow ints are stored sign-extended, i1 as 0/1).
func truncTag(tag uint8, v int64) int64 {
	switch tag {
	case tI1:
		return v & 1
	case tI8:
		return int64(int8(v))
	case tI32:
		return int64(int32(v))
	}
	return v
}

// toUTag reinterprets a canonically stored value as unsigned at the
// width the truncation tag encodes.
func toUTag(tag uint8, v int64) uint64 {
	switch tag {
	case tI1:
		return uint64(v) & 1
	case tI8:
		return uint64(uint8(v))
	case tI32:
		return uint64(uint32(v))
	}
	return uint64(v)
}

func boolVal(r bool) interp.Value {
	if r {
		return interp.IntVal(1)
	}
	return interp.IntVal(0)
}

// evalScalar executes a decoded compute/setp/selp/mov/cvt instruction for
// the lane whose register block starts at base. All opcode semantics live
// in the shared kernels of ops.go.
func (w *warpSim) evalScalar(in *dInstr, base int) interp.Value {
	a := srcVal(w.regs, base, &in.srcs[0])
	switch in.exec {
	case xMov:
		return a
	case xSelp:
		if a.I != 0 {
			return srcVal(w.regs, base, &in.srcs[1])
		}
		return srcVal(w.regs, base, &in.srcs[2])
	case xSetpI:
		b := srcVal(w.regs, base, &in.srcs[1])
		return boolVal(evalICmp(in.pred, in.aux, a.I, b.I))
	case xSetpF:
		b := srcVal(w.regs, base, &in.srcs[1])
		return boolVal(evalFCmp(in.pred, a.F, b.F))
	case xTrunc, xZExt, xSExt, xFPToSI:
		return interp.IntVal(evalConvI(in.exec, in.trunc, in.aux, a.I, a.F))
	case xSIToFP, xFPExt, xFPTrunc:
		return interp.FloatVal(evalConvF(in.exec, in.rndF32, a.I, a.F))
	}
	if in.exec >= xFAdd { // tag order: float compute ops are the last group
		var b float64
		if in.nSrcs > 1 {
			b = srcVal(w.regs, base, &in.srcs[1]).F
		}
		return interp.FloatVal(evalFloatOp(in.exec, in.rndF32, a.F, b))
	}
	var b int64
	if in.nSrcs > 1 {
		b = srcVal(w.regs, base, &in.srcs[1]).I
	}
	return interp.IntVal(evalIntOp(in.exec, in.trunc, in.aux, a.I, b))
}
