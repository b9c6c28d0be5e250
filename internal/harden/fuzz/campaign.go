package fuzz

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"uu/internal/analysis"
	"uu/internal/gpusim"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// CampaignOptions configures a differential fuzzing run.
type CampaignOptions struct {
	// Count is the number of kernels to generate; seeds run from Seed to
	// Seed+Count-1.
	Count int
	Seed  int64
	// Configs lists the pipeline configurations to exercise; nil means all
	// of pipeline.Configs. Per-loop configurations are skipped for kernels
	// without loops.
	Configs []pipeline.Config
	// VerifyEach runs the IR verifier after every pass (contained).
	VerifyEach bool
	// Inject adds extra passes to every pipeline run — the hook the
	// end-to-end tests use to plant a known miscompile.
	Inject []analysis.Pass
	// Device, when non-empty, pins the simulator legs of the differential
	// matrix to this gpusim device spec (see gpusim.ParseDevice), instead
	// of the default cross-policy matrix covering all three divergence
	// backends.
	Device string
	// Reduce shrinks every finding into a minimized reproducer.
	Reduce bool
	// ReproDir, when set together with Reduce, receives one .ir file per
	// minimized finding.
	ReproDir string
	// Log, when non-nil, receives one progress line per finding.
	Log io.Writer
}

// Finding is one confirmed divergence, optionally minimized.
type Finding struct {
	Div       Divergence
	IR        string // the diverging kernel as generated
	ReducedIR string // minimized reproducer ("" when reduction was off or failed)
	StopAfter int    // minimal pipeline prefix that reproduces (0 = full pipeline)
	ReproPath string // file the reproducer was written to ("" when not written)
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Kernels  int
	Checks   int
	Findings []Finding
	// Refusals counts pipeline runs that returned a clean error (e.g. the
	// selected loop was not unrollable). A refusal is correct robust
	// behavior, not a finding, but the count is reported for visibility.
	Refusals int
	// Failures lists pass invocations the guard contained (panics, and
	// verifier rejections under VerifyEach) across all runs.
	Failures []harden.PassFailure
}

// Partition splits the findings into genuine differential mismatches and
// infrastructure failures (budget exhaustion, decode errors — see
// Divergence.Infra). Campaign drivers map the two classes to distinct exit
// codes so CI can triage a red fuzz job without parsing logs.
func (r *CampaignResult) Partition() (mismatches, infra int) {
	for _, f := range r.Findings {
		if f.Div.Infra() {
			infra++
		} else {
			mismatches++
		}
	}
	return mismatches, infra
}

// RunCampaign generates Count kernels and runs each through the
// differential matrix for every applicable configuration. The returned
// error reports infrastructure problems only; miscompiles land in
// Findings.
func RunCampaign(o CampaignOptions) (*CampaignResult, error) {
	cfgs := o.Configs
	if len(cfgs) == 0 {
		cfgs = pipeline.Configs
	}
	var legs []gpusim.DeviceConfig
	if o.Device != "" {
		dev, _, err := gpusim.ParseDevice(o.Device)
		if err != nil {
			return nil, err
		}
		legs = []gpusim.DeviceConfig{dev}
	}
	res := &CampaignResult{}
	for i := 0; i < o.Count; i++ {
		seed := o.Seed + int64(i)
		k := harden.Generate(seed)
		res.Kernels++
		// Loop ids are assigned on the canonicalized form; count them there
		// (Canonicalize mutates, so feed it a clone).
		loops := len(pipeline.Canonicalize(ir.Clone(k.F)).Loops)
		for _, cfg := range cfgs {
			opts := pipeline.Options{
				Config:         cfg,
				VerifyEachPass: o.VerifyEach,
				Contain:        true,
				Inject:         o.Inject,
			}
			switch cfg {
			case pipeline.UnrollOnly, pipeline.UnmergeOnly, pipeline.UU:
				if loops == 0 {
					continue
				}
				// The seed's non-negative remainder: a negative seed names
				// a loop too.
				n := int64(loops)
				opts.LoopID = int((seed%n + n) % n)
				opts.Factor = 2 + 2*(i%2) // alternate factors 2 and 4
			}
			div, stats, err := check(k.F, k, opts, legs)
			if err != nil {
				return nil, err
			}
			res.Checks++
			if stats != nil {
				res.Failures = append(res.Failures, stats.Failures...)
			}
			if div == nil {
				continue
			}
			if div.Stage == "optimize" {
				res.Refusals++
				continue
			}
			f := Finding{Div: *div, IR: k.F.String()}
			if o.Reduce {
				if red, rerr := Reduce(k.F, k, opts); rerr == nil && red != nil {
					f.ReducedIR = red.F.String()
					f.StopAfter = red.Opts.StopAfter
					f.Div = *red.Div
					if o.ReproDir != "" {
						if path, werr := writeRepro(o.ReproDir, &f, opts); werr == nil {
							f.ReproPath = path
						}
					}
				}
			}
			if o.Log != nil {
				fmt.Fprintf(o.Log, "FAIL %s\n", f.Div.String())
			}
			res.Findings = append(res.Findings, f)
		}
	}
	return res, nil
}

// writeRepro persists a minimized reproducer with a header that records
// everything needed to replay it.
func writeRepro(dir string, f *Finding, opts pipeline.Options) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("fuzz%d-%s.ir", f.Div.Seed, f.Div.Config))
	body := fmt.Sprintf(
		"; differential fuzz reproducer\n; seed %d, config %s, loop %d, factor %d\n; stage %s: %s\n; stop-after %d (0 = full pipeline)\n%s",
		f.Div.Seed, f.Div.Config, opts.LoopID, opts.Factor, f.Div.Stage, f.Div.Detail, f.StopAfter, f.ReducedIR)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
