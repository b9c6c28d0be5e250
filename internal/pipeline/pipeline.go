// Package pipeline assembles the optimization pass pipelines the paper's
// evaluation compares (Section IV-B): baseline -O3, -O3 + unroll, -O3 +
// unmerge, -O3 + u&u, and -O3 + the u&u heuristic. The loop transformation
// is placed early in the pipeline — right after SSA construction and a first
// canonicalization round — "to maximize subsequent optimizations enabled
// through those transformations", exactly as the paper positions its pass.
//
// The pipeline is described declaratively as a sequence of PhaseSpecs and
// executed by a change-driven driver: every pass implements analysis.Pass,
// consumes cached analyses from one analysis.AnalysisManager shared across
// the whole compilation, and declares which analyses it preserved. The
// driver invalidates the cache accordingly after each pass, stops a
// fixpoint phase as soon as a full round reports no change, and records
// per-pass wall time, change flags, and cache traffic in Stats.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"uu/internal/analysis"
	"uu/internal/core"
	"uu/internal/freelist"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/remark"
	"uu/internal/transform"
)

// Config names one of the evaluation's five compiler configurations.
type Config string

// The five configurations of the paper's methodology section.
const (
	Baseline    Config = "baseline"
	UnrollOnly  Config = "unroll"
	UnmergeOnly Config = "unmerge"
	UU          Config = "uu"
	UUHeuristic Config = "uu-heuristic"
)

// Configs lists all configurations in the paper's order.
var Configs = []Config{Baseline, UnrollOnly, UnmergeOnly, UU, UUHeuristic}

// ParseConfig resolves a configuration name as a user spells it (a flag
// value, a request's "config" field); the empty string is Baseline.
func ParseConfig(s string) (Config, error) {
	if s == "" {
		return Baseline, nil
	}
	for _, c := range Configs {
		if string(c) == s {
			return c, nil
		}
	}
	return "", fmt.Errorf("unknown config %q (want one of %v)", s, Configs)
}

// Options selects the configuration and its parameters.
type Options struct {
	Config Config
	// LoopID selects the loop for the per-loop configurations (unroll,
	// unmerge, uu), using the deterministic loop numbering computed on the
	// canonicalized function ("the pass assigns consistent, deterministic
	// unique ids to loops", Section III-C). Ignored by baseline/heuristic.
	LoopID int
	// Factor is the unroll factor for the unroll and uu configurations.
	Factor int
	// Heuristic parameters (uu-heuristic only); zero value means the
	// paper's defaults (c=1024, u_max=8).
	Heuristic core.HeuristicParams
	// Unmerge options (direct-successor ablation, block cap, selective
	// mode).
	Unmerge core.Options
	// GVN options; zero value means all capabilities enabled.
	GVN *transform.GVNOptions
	// DisableIfConvert removes backend predication from the pipeline
	// (ablation: without it the baseline has no selp-style code).
	DisableIfConvert bool
	// VerifyEachPass runs the IR verifier after every pass (tests).
	VerifyEachPass bool
	// Contain runs every pass invocation under a harden.Guard: a snapshot of
	// the IR is in hand before the pass, panics are recovered, and — with
	// VerifyEachPass — verifier-rejected output is rolled back too. A
	// contained failure skips the pass (the function keeps its pre-pass
	// form), is recorded in Stats.Failures, and never aborts compilation.
	Contain bool
	// Inject appends extra passes in their own phase right after
	// canonicalization — the hook fault-injection tests and the fuzzer's
	// pass bisection use to place a known-bad pass at a known position.
	Inject []analysis.Pass
	// StopAfter, when > 0, truncates the pipeline after that many pass
	// invocations (the loop transformation counts as one). The fuzzer's
	// reducer bisects this limit to find the first invocation after which
	// a failure reproduces.
	StopAfter int
	// Remarks, when non-nil, collects optimization remarks from every pass
	// of this compilation. The collector is attached to the compilation's
	// AnalysisManager so passes reach it without signature changes. Remark
	// content is deterministic: no timestamps, no pointers, emission order
	// only.
	Remarks *remark.Collector
}

// PhaseSpec declares one stage of the pipeline: an ordered pass list run up
// to MaxRounds times. The driver re-runs the list only while some pass in
// the previous round reported a change, so a phase with MaxRounds > 1 is a
// bounded fixpoint iteration. Deterministic passes leave unchanged IR
// unchanged, so stopping early yields byte-identical output to always
// running MaxRounds rounds.
type PhaseSpec struct {
	Name      string
	Passes    []analysis.Pass
	MaxRounds int
}

// PassTime records one clocked interval of a compilation — a pass
// invocation or a "verify" call: the phase it ran in, when it started as an
// offset from Stats.Start, its wall-clock cost, whether it changed the
// function, and the analysis-cache traffic (hits, misses, invalidations)
// attributable to it. It is the only clock on the interval: -pass-stats,
// Figure 6c and every trace are rendered from these records.
type PassTime struct {
	Name     string
	Phase    string
	Start    time.Duration
	Duration time.Duration
	Changed  bool
	Cache    analysis.CacheStats
}

// PhaseRounds records how many rounds of a fixpoint phase actually ran.
type PhaseRounds struct {
	Phase     string
	Rounds    int
	MaxRounds int
}

// Stats reports what the pipeline did. It is filled in on every return path
// of Optimize, so a compilation that failed part-way still says what ran.
type Stats struct {
	Function string
	Config   Config
	// Start is when the pipeline began; PassTime.Start offsets count from it.
	Start       time.Time
	CompileTime time.Duration
	// VerifyTime is the total verifier wall time when VerifyEachPass is on.
	// It is included in CompileTime (the verifier really ran) but reported
	// separately — and as "verify" PassTimes entries — so measurements of
	// verified runs can subtract it instead of silently charging it to the
	// optimizer.
	VerifyTime time.Duration
	PassTimes  []PassTime
	// Rounds lists, per fixpoint phase, how many rounds ran before the
	// change-driven driver stopped.
	Rounds []PhaseRounds
	// Analysis is the compilation's total analysis-cache traffic.
	Analysis analysis.CacheStats
	// Decisions taken by the heuristic (uu-heuristic only).
	Decisions []core.Decision
	// Skips records the loops the heuristic considered and rejected, with
	// reasons (uu-heuristic only). The profiler's predicted-vs-measured
	// report cross-references these to tell CORRECT-SKIP from MISPREDICT.
	Skips []core.SkipRecord
	// LoopTransformed reports whether the selected loop transformation
	// actually applied (false for baseline or when it bailed out).
	LoopTransformed bool
	// Failures lists the pass failures contained during this compilation
	// (Options.Contain). Empty on a healthy run.
	Failures []harden.PassFailure
}

// Trace renders the compilation on lane tid of tr: one "optimize:" span over
// the whole of it, a "phase:" span over each run of records that share a
// Phase, and a span per record, in PassTimes order.
func (s *Stats) Trace(tr *remark.Trace, tid int) {
	tr.Complete(tid, "optimize:"+s.Function, "pipeline", s.Start, s.CompileTime,
		map[string]any{"config": string(s.Config)})
	for i, pt := range s.PassTimes {
		if i == 0 || pt.Phase != s.PassTimes[i-1].Phase {
			last := pt
			for _, next := range s.PassTimes[i+1:] {
				if next.Phase != pt.Phase {
					break
				}
				last = next
			}
			tr.Complete(tid, "phase:"+pt.Phase, "pipeline", s.Start.Add(pt.Start),
				last.Start+last.Duration-pt.Start, nil)
		}
		tr.Complete(tid, pt.Name, "pass", s.Start.Add(pt.Start), pt.Duration,
			map[string]any{"function": s.Function, "changed": pt.Changed})
	}
}

// canonicalizationPasses is the phase-1 pipeline: SSA construction and a
// first canonicalization round. This list is the single source of truth for
// "the canonical form": loop IDs are assigned on its output, and only
// OptimizeCtx's phase 1 and Canonicalize run it.
func canonicalizationPasses(s *transform.Scratch) []analysis.Pass {
	return []analysis.Pass{
		transform.Mem2RegPass(),
		transform.SimplifyCFGPass(),
		transform.InstSimplifyPass(s),
		transform.DCEPass(s),
	}
}

// cleanupPasses is the -O3-style middle-end round run (to fixpoint) after
// the loop transformation, after automatic unrolling, and after predication.
func cleanupPasses(s *transform.Scratch, gvn transform.GVNOptions) []analysis.Pass {
	return []analysis.Pass{
		transform.SCCPPass(s),
		transform.SimplifyCFGPass(),
		transform.InstSimplifyPass(s),
		transform.InstCombinePass(s),
		transform.GVNPass(gvn, s),
		transform.DCEPass(s),
		transform.SimplifyCFGPass(),
	}
}

// scratch is what one compilation borrows: each layer's storage for the
// tables its passes rebuild on every invocation, grown by the compilations
// that had it before. transform's holds the cleanup passes' tables, core's
// the unmerger's and its ir.Cloner's, harden's the guard's spare snapshot,
// analysis's the analysis manager's dominator tree and loop info.
// Each layer owns its type; this package owns how long a bundle lives.
// OptimizeCtx takes one when it starts and files it back on every return
// that did not panic. Three rules keep reuse invisible (DESIGN.md §16):
//   - reset on take: every table is cleared, or overwritten before it is
//     read, by the pass that uses it, so a compilation cannot see what the
//     bundle served before — another kernel, or a compile that a contained
//     panic or a cancellation left half done;
//   - a filed bundle pins no function: each layer's Park clears what refers
//     to blocks, instructions or values, and a compile that panicked drops
//     its bundle instead of filing it;
//   - bounded: the list keeps freelist.Bound bundles, and harden drops a
//     spare snapshot past its size cap.
type scratch struct {
	transform transform.Scratch
	core      core.Scratch
	harden    harden.Scratch
	analysis  analysis.Scratch
}

// freeScratch holds the filed bundles. A bundle's tables grow to what they
// serve, so any bundle can serve any compilation. Its price: with its Put
// discarded the benchmark's sweep allocates 42 % more and serve-cold 43 %
// more (EXPERIMENTS.md "What each free list buys").
var freeScratch = freelist.New[*scratch]()

func takeScratch() *scratch {
	if s, ok := freeScratch.Take(); ok {
		return s
	}
	return new(scratch)
}

// park drops every reference the bundle holds to the compilation it served.
func (s *scratch) park() {
	s.transform.Park()
	s.core.Park()
	s.harden.Park()
	s.analysis.Park()
}

// file parks s and puts it on the free list.
func (s *scratch) file() {
	s.park()
	freeScratch.Put(s)
}

// driver executes PhaseSpecs against one function and its analysis manager,
// recording instrumentation into st.
type driver struct {
	f    *ir.Function
	am   *analysis.AnalysisManager
	st   *Stats
	opts Options
	s    *scratch
	// ctx is polled before every pass invocation so a deadline or
	// cancellation stops compilation at the next pass boundary
	// (OptimizeCtx). Passes themselves are not interruptible — they are
	// short — so one pass is the cancellation granularity.
	ctx context.Context
	// guard contains pass failures when Options.Contain is set (nil
	// otherwise). invoked counts pass invocations for Options.StopAfter.
	guard   *harden.Guard
	invoked int
	// phase is the PassTime.Phase of whatever is recorded next.
	phase string
}

// ctxErr reports the driver's context error, wrapped with pipeline
// attribution, or nil.
func (d *driver) ctxErr() error {
	if err := d.ctx.Err(); err != nil {
		return fmt.Errorf("pipeline %s: %s: %w", d.opts.Config, d.f.Name, err)
	}
	return nil
}

// limitReached consumes one invocation slot and reports whether the
// StopAfter truncation point has been passed. Skipped invocations leave no
// PassTimes entry, so Stats.PassTimes lists exactly what ran.
func (d *driver) limitReached() bool {
	if d.opts.StopAfter > 0 && d.invoked >= d.opts.StopAfter {
		return true
	}
	d.invoked++
	return false
}

// record appends one clocked interval to Stats.PassTimes.
func (d *driver) record(name string, t0 time.Time, dur time.Duration, changed bool, cache analysis.CacheStats) {
	d.st.PassTimes = append(d.st.PassTimes, PassTime{
		Name:     name,
		Phase:    d.phase,
		Start:    t0.Sub(d.st.Start),
		Duration: dur,
		Changed:  changed,
		Cache:    cache,
	})
}

// invoke executes one pass invocation named name: clock it, verify its
// output under VerifyEachPass, apply its invalidation declaration,
// attribute the cache traffic to it, and record it and then the verifier
// call. This is the one place a compilation calls ir.Verify. Under
// containment (Options.Contain) run goes through the guard: a panic, or a
// verifier rejection the guard is handed, rolls the function back, is kept
// by the guard instead of propagating, and reports failed with the pass
// recorded as Unchanged. Outside containment a verifier rejection is the
// returned error. The pass schedule — what is recorded, in what order — is
// the same either way.
func (d *driver) invoke(name string, run func() analysis.PreservedAnalyses) (changed, failed bool, err error) {
	if err := d.ctxErr(); err != nil {
		return false, false, err
	}
	if d.limitReached() {
		return false, false, nil
	}
	before := d.am.Stats()
	var pa analysis.PreservedAnalyses
	t0 := time.Now()
	if d.guard != nil {
		pa, failed = d.guard.Run(name, d.f, d.am, run)
	} else {
		pa = run()
	}
	dur := time.Since(t0)
	verified := d.opts.VerifyEachPass && !failed // a rolled-back panic left the verified pre-pass IR
	var v0 time.Time
	var vd time.Duration
	if verified {
		v0 = time.Now()
		err = ir.Verify(d.f)
		vd = time.Since(v0)
		if err != nil {
			if d.guard != nil {
				d.guard.Reject(name, d.f, d.am, err)
				pa, failed, err = analysis.Unchanged(), true, nil
			} else {
				err = fmt.Errorf("pipeline %s: after %s: %w", d.opts.Config, name, err)
			}
		}
	}
	d.am.Invalidate(pa)
	d.record(name, t0, dur, pa.Changed(), d.am.Stats().Sub(before))
	if verified {
		d.st.VerifyTime += vd
		d.record("verify", v0, vd, false, analysis.CacheStats{})
	}
	return pa.Changed(), failed, err
}

// runPhase executes a phase's rounds, stopping after the first round in
// which no pass reported a change.
func (d *driver) runPhase(ph PhaseSpec) error {
	d.phase = ph.Name
	rounds := 0
	for ; rounds < ph.MaxRounds; rounds++ {
		roundChanged := false
		for _, p := range ph.Passes {
			changed, _, err := d.invoke(p.Name(), func() analysis.PreservedAnalyses { return p.Run(d.f, d.am) })
			if err != nil {
				return err
			}
			if changed {
				roundChanged = true
			}
		}
		if !roundChanged {
			rounds++
			break
		}
	}
	d.st.Rounds = append(d.st.Rounds, PhaseRounds{ph.Name, rounds, ph.MaxRounds})
	return nil
}

// runPhases executes phases in order up to the first error.
func (d *driver) runPhases(phases ...PhaseSpec) error {
	for _, ph := range phases {
		if err := d.runPhase(ph); err != nil {
			return err
		}
	}
	return nil
}

// Optimize runs the selected configuration's pipeline on f in place.
func Optimize(f *ir.Function, opts Options) (*Stats, error) {
	return OptimizeCtx(context.Background(), f, opts)
}

// OptimizeCtx is Optimize under a context, which must not be nil:
// cancellation or deadline expiry is checked before every pass invocation
// and aborts the compilation with an error wrapping the context's (match
// with errors.Is). The function is left in whatever intermediate form the
// last completed pass produced — callers that canceled are expected to
// discard it.
func OptimizeCtx(ctx context.Context, f *ir.Function, opts Options) (*Stats, error) {
	s := takeScratch()
	st, err := optimize(ctx, f, opts, s)
	s.file()
	return st, err
}

// optimize is OptimizeCtx compiling in the scratch bundle s.
func optimize(ctx context.Context, f *ir.Function, opts Options, s *scratch) (*Stats, error) {
	// One allocation holds the pass record of all but the longest verified
	// compilations (an unverified one is 31 to 52 records).
	st := &Stats{Function: f.Name, Config: opts.Config, PassTimes: make([]PassTime, 0, 64)}
	switch opts.Config {
	case Baseline, UnrollOnly, UnmergeOnly, UU, UUHeuristic:
	default:
		return st, fmt.Errorf("pipeline: unknown config %q", opts.Config)
	}
	st.Start = time.Now()
	am := analysis.NewAnalysisManager(f, &s.analysis)
	am.SetRemarks(opts.Remarks)
	d := &driver{f: f, am: am, st: st, opts: opts, s: s, ctx: ctx}
	if opts.Contain {
		d.guard = harden.NewGuard(&s.harden)
	}
	err := d.run()
	st.Analysis = am.Stats()
	if d.guard != nil {
		st.Failures = d.guard.Failures()
	}
	st.CompileTime = time.Since(st.Start)
	return st, err
}

// run executes the pipeline's phases. A verifier rejection outside
// containment or a canceled context ends it at once; the loop
// transformation's own error (unknown loop, untransformable shape) does not:
// the remaining phases still run and the error is returned at the end, so
// callers get both a diagnosis and a valid compilation.
func (d *driver) run() error {
	opts := d.opts
	gvnOpts := transform.DefaultGVNOptions()
	if opts.GVN != nil {
		gvnOpts = *opts.GVN
	}

	// Phase 1: SSA construction and canonicalization. Loop IDs are assigned
	// on this canonical form, identically across configurations. Injected
	// passes (fault-injection tests, fuzz bisection) run in their own phase
	// right after it.
	ts := &d.s.transform
	early := []PhaseSpec{{"canonicalize", canonicalizationPasses(ts), 1}}
	if len(opts.Inject) > 0 {
		early = append(early, PhaseSpec{"inject", opts.Inject, 1})
	}
	if err := d.runPhases(early...); err != nil {
		return err
	}

	// Phase 2: the loop transformation under evaluation, placed early.
	skipAuto := map[int]bool{}
	loopErr, err := d.runLoopTransform(skipAuto)
	if err != nil {
		return err
	}

	// Phase 3: the -O3-style middle end that exploits the transformation,
	// then one loop-optimization sweep. Phase 4: baseline automatic unrolling
	// (skips transformed loops), then another cleanup fixpoint to evaluate
	// fully unrolled loops. Phase 5: backend-style predication (selp
	// formation) and final cleanup.
	cleanup := cleanupPasses(ts, gvnOpts)
	late := []PhaseSpec{
		{"cleanup", cleanup, 3},
		{"loop-opts", []analysis.Pass{
			transform.LICMPass(),
			transform.GVNPass(gvnOpts, ts),
			transform.DCEPass(ts),
		}, 1},
		{"auto-unroll", []analysis.Pass{transform.AutoUnrollPass(skipAuto)}, 1},
		{"cleanup-post-unroll", cleanup, 2},
	}
	if !opts.DisableIfConvert {
		late = append(late, PhaseSpec{"ifconvert", []analysis.Pass{transform.IfConvertPass()}, 1})
	}
	late = append(late, PhaseSpec{"cleanup-final", cleanup, 1})
	if err := d.runPhases(late...); err != nil {
		return err
	}
	return loopErr
}

// runLoopTransform executes phase 2: the config-specific loop
// transformation, invoked like a single pass named "<config>-loop-pass" in
// the phase "loop-transform". Transformed loop headers' block IDs are added
// to skipAuto so automatic unrolling leaves them alone. The analysis manager is shared
// with the transformation, which invalidates it conservatively itself: the
// loop passes normalize loops (preheader/LCSSA) even when they fail. loopErr
// is the transformation's own diagnosis, err what must stop the pipeline.
func (d *driver) runLoopTransform(skipAuto map[int]bool) (loopErr, err error) {
	st := d.st
	d.phase = "loop-transform"
	_, failed, err := d.invoke(string(d.opts.Config)+"-loop-pass", func() analysis.PreservedAnalyses {
		// Changed means edited, not transformed: a loop pass that declines
		// has still normalized the loop it looked at.
		was := ir.Fingerprint(d.f)
		loopErr = d.loopTransformBody(skipAuto)
		return analysis.If(st.LoopTransformed || ir.Fingerprint(d.f) != was, analysis.PreserveNone())
	})
	if failed {
		// The rollback undid any partial transformation; report the
		// loop as untouched so auto-unroll and the harness see the
		// degraded-to-baseline truth. The restored blocks carry the IDs
		// they had, so no skipAuto entry may survive.
		clear(skipAuto)
		st.LoopTransformed = false
		st.Decisions = nil
		st.Skips = nil
		loopErr = nil
	}
	return loopErr, err
}

// loopTransformBody is the config-specific switch, factored out so the
// guard can run it under containment.
func (d *driver) loopTransformBody(skipAuto map[int]bool) (loopErr error) {
	f, st, opts := d.f, d.st, d.opts
	switch opts.Config {
	case Baseline:
		// nothing
	case UnrollOnly:
		header, err := d.headerOfLoop(opts.LoopID)
		if err != nil {
			return err
		}
		l := d.am.LoopInfo().LoopByID(opts.LoopID)
		ok := transform.UnrollLoop(f, l, opts.Factor)
		d.am.InvalidateAll() // UnrollLoop normalizes the loop even on failure
		if ok {
			st.LoopTransformed = true
			skipAuto[header.ID()] = true
			if d.am.Remarks().Enabled() {
				d.am.Remarks().Emit(remark.Remark{
					Kind: remark.Passed, Pass: "loop-pass", Name: "Unrolled",
					Function: f.Name, Block: header.Name,
					Args: []remark.Arg{
						remark.Int("Loop", int64(opts.LoopID)),
						remark.Int("Factor", int64(opts.Factor)),
					},
				})
			}
		} else {
			loopErr = fmt.Errorf("pipeline: loop #%d not unrollable", opts.LoopID)
			if d.am.Remarks().Enabled() {
				d.am.Remarks().Emit(remark.Remark{
					Kind: remark.Missed, Pass: "loop-pass", Name: "NotUnrollable",
					Function: f.Name, Block: header.Name,
					Args: []remark.Arg{
						remark.Int("Loop", int64(opts.LoopID)),
						remark.Int("Factor", int64(opts.Factor)),
					},
				})
			}
		}
	case UnmergeOnly, UU:
		factor := opts.Factor
		if opts.Config == UnmergeOnly {
			factor = 1
		}
		header, err := d.headerOfLoop(opts.LoopID)
		if err != nil {
			return err
		}
		st.LoopTransformed, loopErr = core.UnrollAndUnmergeWith(d.am, opts.LoopID, factor, opts.Unmerge, &d.s.core)
		d.am.InvalidateAll()
		if st.LoopTransformed {
			skipAuto[header.ID()] = true
		}
	case UUHeuristic:
		// Fill C/UMax individually so the other fields (SkipDivergent,
		// Overrides) survive a zero-valued budget.
		params := opts.Heuristic.FillDefaults()
		st.Decisions, st.Skips = core.ApplyHeuristicWith(d.am, params, opts.Unmerge, &d.s.core)
		d.am.InvalidateAll()
		st.LoopTransformed = len(st.Decisions) > 0
		for _, dec := range st.Decisions {
			if h := f.BlockByName(dec.Header); h != nil {
				skipAuto[h.ID()] = true
			}
		}
	}
	return loopErr
}

func (d *driver) headerOfLoop(id int) (*ir.Block, error) {
	li := d.am.LoopInfo()
	l := li.LoopByID(id)
	if l == nil {
		return nil, fmt.Errorf("pipeline: %s has no loop #%d (%d loops)", d.f.Name, id, len(li.Loops))
	}
	return l.Header, nil
}

// Canonicalize puts f in the canonical form in place, running phase 1's pass
// list in a borrowed scratch bundle exactly as OptimizeCtx runs it first, and
// returns the loops of the result: loop i of it is the loop Options.LoopID i
// selects. Callers that need f as it was must canonicalize a copy. The loops
// are built in storage of their own, since they outlive the bundle.
func Canonicalize(f *ir.Function) *analysis.LoopInfo {
	s := takeScratch()
	am := analysis.NewAnalysisManager(f, new(analysis.Scratch))
	for _, p := range canonicalizationPasses(&s.transform) {
		am.Invalidate(p.Run(f, am))
	}
	s.file()
	return am.LoopInfo()
}
