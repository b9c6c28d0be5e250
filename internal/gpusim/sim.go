package gpusim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"uu/internal/codegen"
	"uu/internal/freelist"
	"uu/internal/interp"
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
	return RunCtx(context.Background(), p, args, mem, launch, cfg, nil)
}

// RunCtx is Run in full. Cancellation of ctx (a request deadline, a client
// disconnect, SIGINT) is checked at warp-block boundaries alongside the
// MaxWarpSteps budget, so a runaway or merely slow simulation stops within
// one basic block of the cancel; the returned error wraps ctx's error (match
// with errors.Is(err, context.Canceled/DeadlineExceeded)), and a Background
// (or otherwise non-cancelable) context costs one nil check per block. A
// non-nil prof, which must be sized for p (NewProfile), accumulates per-PC
// hotspot counters. Metrics are byte-identical with and without profiling.
// Every error path discards metrics; mem keeps the stores made before the
// failure. The run is not clocked here: a caller that wants its wall time
// (a trace's "sim:" span, a phase histogram) times the call.
func RunCtx(ctx context.Context, p *codegen.Program, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, prof *Profile) (*Metrics, error) {
	if len(args) != len(p.ParamRegs) {
		return nil, fmt.Errorf("gpusim: kernel %s expects %d args, got %d", p.Name, len(p.ParamRegs), len(args))
	}
	if launch.GridDim < 1 || launch.BlockDim < 1 {
		return nil, fmt.Errorf("gpusim: kernel %s: launch of %d blocks x %d threads cannot run (want both >= 1)", p.Name, launch.GridDim, launch.BlockDim)
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
	m := &Metrics{}
	if err := runWarps(ctx, dp, args, mem, launch, cfg, simWarps, total, m, prof); err != nil {
		return nil, err
	}
	if simWarps < totalWarps {
		k := float64(totalWarps) / float64(simWarps)
		m.Scale(k)
		if prof != nil {
			prof.Scale(k)
		}
	}
	return m, nil
}

func warpBounds(wi, warpSize, total int) (first, count int) {
	first = wi * warpSize
	count = warpSize
	if first+count > total {
		count = total - first
	}
	return first, count
}

func bitWords(n int) int { return (n + 63) / 64 }

// runWarps runs the launch's first simWarps warps in order on one warpSim.
func runWarps(ctx context.Context, dp *decodedProgram, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, simWarps, total int, m *Metrics, prof *Profile) error {
	w := acquireWarpSim(dp, cfg, mem)
	defer releaseWarpSim(w)
	w.setContext(ctx)
	w.prof = prof
	for wi := 0; wi < simWarps; wi++ {
		first, count := warpBounds(wi, cfg.WarpSize, total)
		if err := w.runThreaded(args, launch, first, count, m); err != nil {
			return err
		}
		m.Warps++
	}
	return nil
}

// Instruction-fetch accounting modes, chosen per run by init: a program that
// fits the instruction cache is never evicted from it, so a miss is exactly
// a line's first touch and a bitset prices it; one that overflows needs the
// LRU model.
const (
	fetchBitset uint8 = iota // miss = first touch (program fits the icache)
	fetchLRU                 // full LRU model (program overflows the icache)
)

type warpSim struct {
	class warpSimClass // what the register files below are sized for

	dp  *decodedProgram
	cfg DeviceConfig
	mem *interp.Memory

	ready []float64 // scoreboard: cycle at which each register's value is available

	// The SoA register files store each register as WarpSize consecutive
	// lanes so block closures run contiguous 32-lane inner loops (see
	// threaded.go); the extra registers past dp.numRegs hold the program's
	// pooled immediates, broadcast once per run by init.
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
	// read back by the block loop.
	nextPC   int
	branched bool
	exited   uint32
	brTaken  uint32
	brNot    uint32
	// eng is the divergence-management backend (DeviceConfig.Policy): it
	// owns the reconvergence state and decides which (block, mask) runs
	// next; the executor only runs whole blocks and reports each block's
	// control-flow outcome back to it.
	eng policyEngine
	// engines holds the engine of each policy this warpSim has run, so a
	// recycled warpSim reuses their stacks; eng is engines[cfg.Policy].
	engines [numPolicies]policyEngine

	// instruction cache state, interpreted per fetchMode
	lines     []int32 // global instruction index -> icache line
	fetchMode uint8
	touched   []uint64
	lru       lruICache
	// blockSeen[b] records (fetchBitset mode only) that every line of block
	// b has been fetched once; touched bits never clear, so once set the
	// whole per-instruction fetch check provably charges zero and
	// steady-state blocks skip it. Never set in LRU mode.
	blockSeen []bool

	lanesTID []int32
	lanesCTA []int32
	addrBuf  []int64 // scratch: active lanes' addresses, lane order
	segBuf   []segSpan
	// segShift is log2(cfg.SegmentBytes) when that is a power of two, else
	// -1: access shifts instead of dividing where the two agree.
	segShift int

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

// warpSimClass is what a warpSim's register files are sized for: the warp
// width and the register count (pooled immediates included) rounded up to a
// power of two. Run state is recycled only within its class (see package
// freelist), so the files always fit.
type warpSimClass struct {
	warp int
	regs int
}

func classOf(dp *decodedProgram, cfg DeviceConfig) warpSimClass {
	n := dp.threadedProg().numRegs
	return warpSimClass{cfg.WarpSize, 1 << bits.Len(uint(max(n, 1)-1))}
}

// newWarpSim builds fresh run state for executing dp on cfg against mem.
func newWarpSim(dp *decodedProgram, cfg DeviceConfig, mem *interp.Memory) *warpSim {
	c := classOf(dp, cfg)
	w := &warpSim{
		class: c,
		ready: make([]float64, c.regs),
		regsI: make([]int64, c.warp*c.regs),
		regsF: make([]float64, c.warp*c.regs),
	}
	w.init(dp, cfg, mem)
	return w
}

// maxFreeWarpSims bounds the run-state free list: a run holds one warpSim,
// so a campaign holds one per harness worker and a uud one per pool worker,
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
		class: w.class, ready: w.ready, regsI: w.regsI, regsF: w.regsF,
		engines: w.engines, touched: w.touched, lru: w.lru, blockSeen: w.blockSeen,
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
// from zero.
func (w *warpSim) init(dp *decodedProgram, cfg DeviceConfig, mem *interp.Memory) {
	w.dp, w.cfg, w.mem = dp, cfg, mem
	tp := dp.threadedProg()
	w.tp = tp
	w.laneW = cfg.WarpSize
	// The real registers are cleared at the start of every warp
	// (runThreaded); the pooled immediates live past dp.numRegs, never
	// change during a run, and are broadcast to every lane here.
	w.regsI = w.regsI[:cfg.WarpSize*tp.numRegs]
	w.regsF = w.regsF[:cfg.WarpSize*tp.numRegs]
	for ci, v := range tp.consts {
		base := (dp.numRegs + ci) * cfg.WarpSize
		for lane := 0; lane < cfg.WarpSize; lane++ {
			w.regsI[base+lane] = v.I
			w.regsF[base+lane] = v.F
		}
	}
	w.ready = w.ready[:dp.numRegs]
	clear(w.ready)
	if w.engines[cfg.Policy] == nil {
		w.engines[cfg.Policy] = newPolicyEngine(cfg.Policy)
	}
	w.eng = w.engines[cfg.Policy]
	w.eng.bind(dp)
	w.lines = dp.lines(cfg.ICacheLineInstrs)
	w.blockSeen = zeroed(w.blockSeen, len(dp.blockStart))
	if numLines := dp.numLines(cfg.ICacheLineInstrs); numLines <= cfg.ICacheLines {
		w.fetchMode = fetchBitset
		w.touched = zeroed(w.touched, bitWords(numLines))
	} else {
		w.fetchMode = fetchLRU
		w.lru.init(numLines, cfg.ICacheLines)
	}
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
