package bench

import (
	"context"
	"fmt"
	"io"

	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/transform"
)

// AblationRow is one variant measured by RunAblations.
type AblationRow struct {
	Name    string
	Millis  float64
	Speedup float64 // over the baseline row
	Code    int64
	Err     string
}

// ablationVariants returns the pipeline variants that probe the design
// decisions DESIGN.md calls out:
//
//  1. whole-tail-path duplication (the paper's design) vs. DBDS-style
//     direct-successor-only duplication [8];
//  2. GVN's dominated-edge equality propagation — the mechanism that turns
//     provenance into deleted conditions;
//  3. GVN's alias-aware load elimination — the "read elimination" wins;
//  4. backend if-conversion — the selp predication that u&u un-does.
func ablationVariants(loopID, factor int) []struct {
	Name string
	Opts pipeline.Options
} {
	noEq := transform.DefaultGVNOptions()
	noEq.PropagateEqualities = false
	noLoads := transform.DefaultGVNOptions()
	noLoads.EliminateLoads = false
	return []struct {
		Name string
		Opts pipeline.Options
	}{
		{"baseline", pipeline.Options{Config: pipeline.Baseline}},
		{"baseline/no-ifconvert", pipeline.Options{Config: pipeline.Baseline, DisableIfConvert: true}},
		{"uu", pipeline.Options{Config: pipeline.UU, LoopID: loopID, Factor: factor}},
		{"uu/direct-successor", pipeline.Options{Config: pipeline.UU, LoopID: loopID, Factor: factor,
			Unmerge: core.Options{DirectSuccessorOnly: true}}},
		{"uu/no-equality-prop", pipeline.Options{Config: pipeline.UU, LoopID: loopID, Factor: factor, GVN: &noEq}},
		{"uu/no-load-elim", pipeline.Options{Config: pipeline.UU, LoopID: loopID, Factor: factor, GVN: &noLoads}},
		{"uu/no-ifconvert", pipeline.Options{Config: pipeline.UU, LoopID: loopID, Factor: factor, DisableIfConvert: true}},
		{"uu/selective", pipeline.Options{Config: pipeline.UU, LoopID: loopID, Factor: factor,
			Unmerge: core.Options{Selective: true}}},
	}
}

// RunAblations measures every ablation variant of one application's loop,
// verifying each against the reference interpreter.
func RunAblations(app string, loopID, factor int, dev gpusim.DeviceConfig) ([]AblationRow, error) {
	b := ByName(app)
	if b == nil {
		return nil, fmt.Errorf("bench: unknown application %q", app)
	}
	w := b.NewWorkload()
	ref, err := Reference(b, w)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	var baseMillis float64
	for _, v := range ablationVariants(loopID, factor) {
		row := AblationRow{Name: v.Name}
		rec, err := Run(context.Background(), Job{Name: b.Name, Kernel: b.CompileKernel, Workload: w,
			Options: v.Opts, Device: dev, Want: ref})
		if err != nil {
			if rec.Program != nil {
				return nil, fmt.Errorf("%s/%s: %w", app, v.Name, err)
			}
			row.Err = err.Error()
			rows = append(rows, row)
			continue
		}
		row.Millis = rec.Millis
		row.Code = rec.CodeBytes
		rec.Release()
		if v.Name == "baseline" {
			baseMillis = row.Millis
		}
		if baseMillis > 0 {
			row.Speedup = baseMillis / row.Millis
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteAblations renders ablation rows as a table.
func WriteAblations(w io.Writer, app string, loopID, factor int, rows []AblationRow) {
	fmt.Fprintf(w, "Ablations: %s loop=%d u=%d\n", app, loopID, factor)
	fmt.Fprintf(w, "%-24s %12s %9s %9s\n", "variant", "time (ms)", "speedup", "code (B)")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(w, "%-24s %12s %9s %9s  (%s)\n", r.Name, "-", "-", "-", r.Err)
			continue
		}
		fmt.Fprintf(w, "%-24s %12.5f %9.3f %9d\n", r.Name, r.Millis, r.Speedup, r.Code)
	}
}
