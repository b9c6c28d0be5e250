package bench

import (
	"context"
	"fmt"
	"io"
	"sort"

	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/profile"
)

// This file is the profile-guided-optimization campaign driver: the closed
// compile→simulate→recompile loop over the heuristic configuration. Each
// round compiles every app with the current per-loop override set, simulates
// baseline and heuristic with hotspot profiling, extracts per-loop feedback
// signals (profile.ExtractFeedback), and asks the policy
// (core.SuggestOverrides) for the next round's overrides. The loop stops
// when no app's override set changes — measured behavior and prediction
// agree — or after pgoMaxRounds.
//
// Determinism: per-app rounds use only Compile + simulate, both of which are
// byte-identical for any worker count; apps are dispatched on the harness's
// pool (runIndexed) and assembled in suite order, so the full PGOResult (and
// its rendered report) is identical under any Workers setting.

// pgoMaxRounds bounds the feedback iteration: the policy's demotion ladder
// force+capN → cap2 → cap1 → deny is 4 rungs deep, so any single loop
// converges within it.
const pgoMaxRounds = 4

// PGOOptions configures a PGO campaign.
type PGOOptions struct {
	Apps []string // nil = whole suite
	// Device is a gpusim.ParseDevice spec (empty = "V100").
	Device string
	Input  InputMode
	// Heuristic is the base parameter set of every round (zero value =
	// paper defaults). Overrides present here are treated as explicit pins:
	// they seed round 1 and always win over derived ones (see
	// core.MergeOverrides).
	Heuristic core.HeuristicParams
	// Seed injects initial per-app derived overrides — the recovery case
	// study seeds complex with a force+cap=8 override to reproduce the u=8
	// collapse and watch the loop dig it back out.
	Seed map[string]map[int32]core.LoopOverride
	// Workers caps concurrent per-app measurement goroutines (0 =
	// GOMAXPROCS). It does not change results, only wall clock.
	Workers int
	// Progress receives one line per completed app round when non-nil
	// (completion order under Workers > 1).
	Progress io.Writer
}

// PGOAppRound is one app's measurement and verdict in one round.
type PGOAppRound struct {
	App     string
	Skipped string // non-empty when the heuristic compile bailed out
	// BaselineMillis and Millis are the round's measured kernel times;
	// Speedup is their ratio (the paper's definition).
	BaselineMillis float64
	Millis         float64
	Speedup        float64
	// Verdict is the predicted-vs-measured verdict (profile.Verdict*);
	// Reason carries the skip reason behind CORRECT-SKIP/MISPREDICT.
	Verdict string
	Reason  string
	// Decisions and Signals are what this round's build did and measured.
	Decisions []core.Decision
	Signals   []core.LoopSignal
	// Overrides is the per-loop set this round compiled with; Next is the
	// set the policy derived for the following round (equal when the app
	// has converged).
	Overrides map[int32]core.LoopOverride
	Next      map[int32]core.LoopOverride
	// Changed reports Next != Overrides.
	Changed bool
}

// PGORound is one full round over the app list, in suite order.
type PGORound struct {
	Round   int
	Apps    []*PGOAppRound
	Changed bool // any app derived a different override set
}

// PGOResult is a full PGO campaign.
type PGOResult struct {
	DeviceName string
	Rounds     []PGORound
	// Converged reports that the last round changed nothing (as opposed to
	// stopping at pgoMaxRounds with pending changes).
	Converged bool
}

// Final returns the last round's per-app results.
func (r *PGOResult) Final() []*PGOAppRound {
	if len(r.Rounds) == 0 {
		return nil
	}
	return r.Rounds[len(r.Rounds)-1].Apps
}

// Mispredicts counts MISPREDICT verdicts surviving in the final round.
func (r *PGOResult) Mispredicts() int {
	n := 0
	for _, a := range r.Final() {
		if a.Verdict == profile.VerdictMispredict {
			n++
		}
	}
	return n
}

// RunPGOCtx runs the profile-guided campaign (see the comment at the top of
// this file); cancellation aborts mid-round and returns the rounds
// completed so far alongside the error.
func RunPGOCtx(ctx context.Context, opts PGOOptions) (*PGOResult, error) {
	dev, devName, input, apps, err := campaignDefaults(opts.Device, opts.Input, opts.Apps)
	if err != nil {
		return nil, err
	}

	// Per-app derived override state, seeded from opts.Seed.
	state := make([]map[int32]core.LoopOverride, len(apps))
	for i, b := range apps {
		state[i] = opts.Seed[b.Name]
	}
	// Baseline time and profile per app, measured once in round 1 (the
	// baseline build does not depend on overrides).
	baseMillis := make([]float64, len(apps))

	logf := progressLog(opts.Progress)
	res := &PGOResult{DeviceName: devName}
	for round := 1; round <= pgoMaxRounds; round++ {
		rr := PGORound{Round: round, Apps: make([]*PGOAppRound, len(apps))}
		errs := make([]error, len(apps))
		runIndexed(ctx, opts.Workers, len(apps), func(_, i int) {
			rr.Apps[i], errs[i] = pgoAppRound(ctx, apps[i], input, dev,
				opts.Heuristic, state[i], round == 1, &baseMillis[i])
			if a := rr.Apps[i]; a != nil {
				logf("pgo round %d %-16s speedup=%.3f verdict=%-16s overrides=%s -> %s",
					round, a.App, a.Speedup, a.Verdict,
					core.OverridesString(a.Overrides), core.OverridesString(a.Next))
			}
		})
		for _, err := range errs {
			if err != nil {
				return res, err
			}
		}
		if ctx.Err() != nil {
			return res, fmt.Errorf("bench: pgo interrupted: %w", ctx.Err())
		}
		for i, a := range rr.Apps {
			if a.Changed {
				rr.Changed = true
			}
			state[i] = a.Next
		}
		res.Rounds = append(res.Rounds, rr)
		if !rr.Changed {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// pgoAppRound measures one app with the given derived override set and
// derives the next set. measureBase asks for the baseline measurement
// (round 1); later rounds reuse *basePtr.
func pgoAppRound(ctx context.Context, b *Benchmark, input InputMode, dev gpusim.DeviceConfig,
	base core.HeuristicParams, derived map[int32]core.LoopOverride,
	measureBase bool, basePtr *float64) (*PGOAppRound, error) {

	a := &PGOAppRound{App: b.Name, Overrides: derived, Next: derived}
	w := b.NewWorkload()
	w.SetInput(input)
	job := Job{Name: b.Name, Kernel: b.CompileKernel, Workload: w, Device: dev}

	if measureBase {
		job.Options = pipeline.Options{Config: pipeline.Baseline}
		rec, err := Run(ctx, job)
		if err != nil {
			return nil, fmt.Errorf("bench pgo %s baseline: %w", b.Name, err)
		}
		*basePtr = rec.Millis
		rec.Release()
	}
	a.BaselineMillis = *basePtr

	params := base.FillDefaults()
	// Explicit overrides in the base params are pins and win over derived.
	params.Overrides = core.MergeOverrides(derived, base.Overrides)
	job.Options = pipeline.Options{Config: pipeline.UUHeuristic, Heuristic: params}
	job.Profile = true
	rec, err := Run(ctx, job)
	switch {
	case err == nil:
	case rec.Program != nil:
		return nil, fmt.Errorf("bench pgo %s heuristic: %w", b.Name, err)
	case ctx.Err() != nil:
		return nil, err
	default:
		a.Skipped = err.Error()
		return a, nil
	}
	a.Millis = rec.Millis
	if a.Millis > 0 {
		a.Speedup = a.BaselineMillis / a.Millis
	}
	st := rec.Stats
	a.Decisions = st.Decisions

	rep := profile.Build(rec.Program, rec.Profile)
	rec.Release()
	ev := profile.Evaluate(rep, st.Decisions, st.Skips)
	a.Verdict, a.Reason = ev.Verdict, ev.Reason
	fb := profile.ExtractFeedback(rep, ev, st.Decisions, a.Speedup)
	a.Signals = fb.Signals
	a.Next, a.Changed = core.SuggestOverrides(derived, fb)
	return a, nil
}

// WritePGOReport renders a PGO campaign: per round one row per app, then a
// convergence summary. Output is a pure function of the result and therefore
// byte-identical for any Workers count.
func WritePGOReport(w io.Writer, r *PGOResult) error {
	bw := &profile.ErrWriter{W: w}
	fmt.Fprintf(bw, "profile-guided u&u campaign (device %s)\n", r.DeviceName)
	for _, rr := range r.Rounds {
		fmt.Fprintf(bw, "\nround %d:\n", rr.Round)
		fmt.Fprintf(bw, "  %-16s %8s %-16s %-24s %-24s %s\n",
			"app", "speedup", "verdict", "decisions", "overrides", "next")
		for _, a := range rr.Apps {
			if a.Skipped != "" {
				fmt.Fprintf(bw, "  %-16s %8s %-16s skipped: %s\n", a.App, "-", "-", a.Skipped)
				continue
			}
			verdict := a.Verdict
			if a.Reason != "" {
				verdict += "(" + a.Reason + ")"
			}
			fmt.Fprintf(bw, "  %-16s %8.3f %-16s %-24s %-24s %s\n",
				a.App, a.Speedup, verdict, decisionsString(a.Decisions),
				core.OverridesString(a.Overrides), core.OverridesString(a.Next))
		}
	}
	if r.Converged {
		fmt.Fprintf(bw, "\nconverged after %d round(s); %d MISPREDICT verdict(s) surviving\n",
			len(r.Rounds), r.Mispredicts())
	} else {
		fmt.Fprintf(bw, "\nNOT converged after %d round(s); %d MISPREDICT verdict(s) surviving\n",
			len(r.Rounds), r.Mispredicts())
	}

	// Final per-app feedback signals, hottest loop first — the measured
	// evidence behind the last round's decisions.
	fmt.Fprintf(bw, "\nfinal per-loop signals:\n")
	for _, a := range r.Final() {
		if a.Skipped != "" || len(a.Signals) == 0 {
			continue
		}
		fmt.Fprintf(bw, "  %s:\n", a.App)
		for _, s := range a.Signals {
			fmt.Fprintf(bw, "    %s\n", s)
		}
	}
	return bw.Err
}

func decisionsString(ds []core.Decision) string {
	if len(ds) == 0 {
		return "-"
	}
	sorted := append([]core.Decision(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].HeaderLine < sorted[j].HeaderLine })
	var sb []byte
	for i, d := range sorted {
		if i > 0 {
			sb = append(sb, ' ')
		}
		sb = append(sb, fmt.Sprintf("L%d:u%d", d.HeaderLine, d.Factor)...)
		if d.Forced {
			sb = append(sb, "(f)"...)
		}
	}
	return string(sb)
}
