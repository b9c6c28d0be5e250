package bench

import (
	"context"
	"fmt"
	"io"

	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

// Sweep is one cell of a campaign matrix: a full RunExperiments result
// under one (device, input mode) combination.
type Sweep struct {
	DeviceName string
	Input      InputMode
	Results    *Results
}

// Matrix is a set of sweeps over the device × input-mode grid, in run
// order (devices outer, input modes inner).
type Matrix struct {
	Sweeps []*Sweep
}

// MatrixOptions configures RunMatrixCtx. Harness is the per-sweep template;
// its Device, DeviceName and Input fields are overwritten for each cell.
type MatrixOptions struct {
	Harness HarnessOptions
	// Devices are gpusim device specs (registry names, optionally with
	// overrides — see gpusim.ParseDevice). Nil means the full registry.
	Devices []string
	// Inputs are the input modes to sweep. Nil means coherent only.
	Inputs []InputMode
}

// RunMatrixCtx runs the campaign once per (device, input) cell. Every sweep
// uses the same apps, factors and harness settings, so cross-cell
// comparisons differ only in the dimension under study. On cancellation the
// in-flight sweep stops at its next pass/block boundary and the completed
// sweeps — plus the interrupted sweep's completed runs — are returned as a
// partial Matrix alongside the context's error, so a SIGINT mid-matrix
// still flushes every cell measured so far.
func RunMatrixCtx(ctx context.Context, opts MatrixOptions) (*Matrix, error) {
	devices := opts.Devices
	if devices == nil {
		devices = gpusim.DeviceNames()
	}
	inputs := opts.Inputs
	if inputs == nil {
		inputs = []InputMode{InputCoherent}
	}
	mx := &Matrix{}
	for _, spec := range devices {
		cfg, name, err := gpusim.ParseDevice(spec)
		if err != nil {
			return nil, err
		}
		for _, in := range inputs {
			hopts := opts.Harness
			hopts.Device = &cfg
			hopts.DeviceName = name
			hopts.Input = in
			res, err := RunExperimentsCtx(ctx, hopts)
			if res != nil && (err == nil || ctx.Err() != nil) {
				mx.Sweeps = append(mx.Sweeps, &Sweep{DeviceName: name, Input: in, Results: res})
			}
			if ctx.Err() != nil {
				return mx, fmt.Errorf("bench: matrix interrupted at device=%s input=%s: %w", name, in, ctx.Err())
			}
			if err != nil {
				return nil, fmt.Errorf("bench: sweep device=%s input=%s: %w", name, in, err)
			}
		}
	}
	return mx, nil
}

// Verdict classifies one application's heuristic speedup across every
// sweep of a matrix.
type Verdict struct {
	App string
	// Speedups holds the heuristic speedup per sweep, in matrix order.
	Speedups []float64
	// Class is "robust win" (>= robustWin everywhere), "robust loss"
	// (<= robustLoss everywhere), "neutral" (inside the dead band
	// everywhere), or "model-specific" (the sign of the effect flips with
	// the device or input — the conclusion is an artifact of one model).
	Class string
}

// Robustness thresholds: a ±2% dead band around 1.0 absorbs measurement
// granularity, so only effects outside it count as wins or losses.
const (
	robustWin  = 1.02
	robustLoss = 0.98
)

// Verdicts computes the per-application robustness classification over
// the matrix's sweeps. Applications missing from any sweep are skipped.
func (mx *Matrix) Verdicts() []Verdict {
	if len(mx.Sweeps) == 0 {
		return nil
	}
	var out []Verdict
	for _, app := range appsOf(mx.Sweeps[0].Results) {
		v := Verdict{App: app}
		wins, losses, neutrals := 0, 0, 0
		ok := true
		for _, s := range mx.Sweeps {
			base, heur := s.Results.Baseline[app], s.Results.Heuristic[app]
			if base == nil || heur == nil {
				ok = false
				break
			}
			sp := heur.Speedup(base)
			v.Speedups = append(v.Speedups, sp)
			switch {
			case sp >= robustWin:
				wins++
			case sp <= robustLoss:
				losses++
			default:
				neutrals++
			}
		}
		if !ok {
			continue
		}
		switch {
		case wins == len(mx.Sweeps):
			v.Class = "robust win"
		case losses == len(mx.Sweeps):
			v.Class = "robust loss"
		case wins == 0 && losses == 0:
			v.Class = "neutral"
		default:
			v.Class = "model-specific"
		}
		out = append(out, v)
	}
	return out
}

// sweepLabel names a sweep column. The input mode is elided when the
// matrix only swept one mode, keeping single-dimension tables narrow.
func (mx *Matrix) sweepLabel(s *Sweep) string {
	for _, o := range mx.Sweeps {
		if o.Input != s.Input {
			return fmt.Sprintf("%s/%s", s.DeviceName, s.Input)
		}
	}
	return s.DeviceName
}

// WriteDeviceMatrix renders the cross-sweep report: the per-sweep figure
// tables, the heuristic-speedup robustness matrix with a verdict per
// application, and the fetch-stall cross-check on complex — the paper's
// 0.06× fetch-stall collapse is the conclusion most at risk of being an
// IPDOM-stack artifact, so the table shows baseline → best-u&u
// stall_inst_fetch fractions on every device model.
func WriteDeviceMatrix(w io.Writer, mx *Matrix) {
	for _, s := range mx.Sweeps {
		fmt.Fprintf(w, "=== sweep: device=%s input=%s ===\n", s.DeviceName, s.Input)
		WriteFig6a(w, s.Results)
		fmt.Fprintf(w, "\n")
		WriteFig7(w, s.Results)
		fmt.Fprintf(w, "\n")
		WriteFig8(w, s.Results)
		fmt.Fprintf(w, "\n")
	}

	fmt.Fprintf(w, "=== cross-sweep robustness: heuristic speedup per sweep ===\n")
	fmt.Fprintf(w, "%-16s", "app")
	for _, s := range mx.Sweeps {
		fmt.Fprintf(w, " %16s", mx.sweepLabel(s))
	}
	fmt.Fprintf(w, "  %s\n", "verdict")
	for _, v := range mx.Verdicts() {
		fmt.Fprintf(w, "%-16s", v.App)
		for _, sp := range v.Speedups {
			fmt.Fprintf(w, " %16.3f", sp)
		}
		fmt.Fprintf(w, "  %s\n", v.Class)
	}

	writeFetchStallMatrix(w, mx, "complex")
}

// writeFetchStallMatrix renders the per-sweep stall_inst_fetch fraction of
// one app, baseline vs u&u at the largest factor swept — the regime where
// the paper observes complex's fetch-stall collapse (u=8), not the app's
// *best* u&u run, which by construction avoids the collapse.
func writeFetchStallMatrix(w io.Writer, mx *Matrix, app string) {
	fmt.Fprintf(w, "\n=== %s stall_inst_fetch: baseline -> u&u at max factor per sweep ===\n", app)
	fmt.Fprintf(w, "%-16s %12s %12s %8s\n", "sweep", "baseline", "max-u u&u", "ratio")
	for _, s := range mx.Sweeps {
		base := s.Results.Baseline[app]
		if base == nil {
			continue
		}
		var rec *RunRecord
		for _, r := range s.Results.PerLoop {
			if r.App != app || r.Config != pipeline.UU || r.Skipped != "" {
				continue
			}
			if rec == nil || r.Factor > rec.Factor {
				rec = r
			}
		}
		if rec == nil {
			fmt.Fprintf(w, "%-16s %11.2f%% %12s %8s\n",
				mx.sweepLabel(s), base.Metrics.StallInstFetchPct()*100, "-", "-")
			continue
		}
		bp, up := base.Metrics.StallInstFetchPct(), rec.Metrics.StallInstFetchPct()
		ratio := 0.0
		if bp > 0 {
			ratio = up / bp
		}
		fmt.Fprintf(w, "%-16s %11.2f%% %11.2f%% %7.2fx\n",
			mx.sweepLabel(s), bp*100, up*100, ratio)
	}
}
