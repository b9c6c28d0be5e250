package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"uu/internal/pipeline"
)

// geomean returns the geometric mean of xs. ok is false when the mean is
// undefined — empty input, or any non-positive/non-finite ratio (a skipped
// run can leave a 0 speedup; log would turn it into -Inf and poison the
// whole mean).
func geomean(xs []float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			return 0, false
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), true
}

// fmtGeomean renders a geomean value, or "n/a" when it is undefined.
func fmtGeomean(xs []float64) string {
	v, ok := geomean(xs)
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

func appsOf(r *Results) []string {
	var out []string
	for app := range r.Baseline {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// WriteTable1 renders the paper's Table I: application metadata plus the
// baseline and heuristic kernel-time means. Runs are deterministic, so the
// relative standard deviation column is identically 0%.
func WriteTable1(w io.Writer, r *Results) {
	fmt.Fprintf(w, "Table I: Overview of Benchmarks (L = #loops, %%C = %% of time in compute kernels)\n")
	fmt.Fprintf(w, "%-16s %-30s %-36s %4s %7s %18s %18s\n",
		"Name", "Category", "Command Line", "L", "%C", "Baseline (ms±RSD)", "Heuristic (ms±RSD)")
	for _, app := range appsOf(r) {
		b := ByName(app)
		base := r.Baseline[app]
		heur := r.Heuristic[app]
		if heur == nil {
			continue // interrupted campaign: heuristic run never happened
		}
		fmt.Fprintf(w, "%-16s %-30s %-36s %4d %6.2f%% %14.4f±0%% %14.4f±0%%\n",
			b.Name, b.Category, b.CommandLine, r.LoopCount[app], b.KernelPct*100,
			base.Millis, heur.Millis)
	}
}

// WriteFig6a renders Figure 6a: per-loop u&u speedup over baseline for every
// unroll factor, plus the heuristic's per-application speedup, and the
// heuristic geometric mean the paper quotes (1.05x).
func WriteFig6a(w io.Writer, r *Results) {
	writeRatioFigure(w, r, "Figure 6a: Speedup of u&u over baseline (per loop and unroll factor) and of the heuristic (per application)",
		"heuristic geomean speedup", (*RunRecord).Speedup)
}

// WriteFig6b renders Figure 6b: code size increase over baseline.
func WriteFig6b(w io.Writer, r *Results) {
	writeRatioFigure(w, r, "Figure 6b: Code size increase of u&u over baseline (whole binary)", "heuristic geomean",
		func(rec, base *RunRecord) float64 {
			app := ByName(rec.App).AppCodeBytes
			return float64(app+rec.CodeBytes) / float64(app+base.CodeBytes)
		})
}

// WriteFig6c renders Figure 6c: compile time increase over baseline.
func WriteFig6c(w io.Writer, r *Results) {
	writeRatioFigure(w, r, "Figure 6c: Compile time increase of u&u over baseline (whole compilation)", "heuristic geomean",
		func(rec, base *RunRecord) float64 {
			app := ByName(rec.App).AppCompileMs
			return (app + rec.CompileMs) / (app + base.CompileMs)
		})
}

// writeRatioFigure renders one row per loop of ratio(u&u record, baseline)
// at every unroll factor, the heuristic's ratio on each application's first
// row, and the heuristic ratios' geometric mean after footer.
func writeRatioFigure(w io.Writer, r *Results, title, footer string, ratio func(rec, base *RunRecord) float64) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-16s %-5s", "app", "loop")
	for _, u := range r.Factors {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("u=%d", u))
	}
	fmt.Fprintf(w, " %10s\n", "heuristic")
	var heurRatios []float64
	for _, app := range appsOf(r) {
		base := r.Baseline[app]
		if r.Heuristic[app] == nil {
			continue // interrupted campaign: heuristic run never happened
		}
		hr := ratio(r.Heuristic[app], base)
		heurRatios = append(heurRatios, hr)
		for loop := 0; loop < r.LoopCount[app]; loop++ {
			fmt.Fprintf(w, "%-16s %-5d", app, loop)
			for _, u := range r.Factors {
				rec := findRec(r, app, pipeline.UU, loop, u)
				if rec == nil || rec.Skipped != "" {
					fmt.Fprintf(w, " %8s", "-")
				} else {
					fmt.Fprintf(w, " %8.3f", ratio(rec, base))
				}
			}
			if loop == 0 {
				fmt.Fprintf(w, " %10.3f", hr)
			}
			fmt.Fprintf(w, "\n")
		}
	}
	fmt.Fprintf(w, "%s: %s\n", footer, fmtGeomean(heurRatios))
}

// WriteFig7 renders Figure 7: the best per-loop speedup per application for
// u&u and unroll at each factor, and for unmerge.
func WriteFig7(w io.Writer, r *Results) {
	fmt.Fprintf(w, "Figure 7: Best speedup per application: u&u vs unroll (factors %v) vs unmerge\n", r.Factors)
	fmt.Fprintf(w, "%-16s", "app")
	for _, u := range r.Factors {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("uu.u%d", u))
	}
	for _, u := range r.Factors {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("unrl.u%d", u))
	}
	fmt.Fprintf(w, " %9s\n", "unmerge")
	for _, app := range appsOf(r) {
		base := r.Baseline[app]
		fmt.Fprintf(w, "%-16s", app)
		emit := func(cfg pipeline.Config, factor int) {
			best := r.Best(app, cfg, factor)
			if best == nil {
				fmt.Fprintf(w, " %9s", "-")
				return
			}
			fmt.Fprintf(w, " %9.3f", best.Speedup(base))
		}
		for _, u := range r.Factors {
			emit(pipeline.UU, u)
		}
		for _, u := range r.Factors {
			emit(pipeline.UnrollOnly, u)
		}
		emit(pipeline.UnmergeOnly, 0)
		fmt.Fprintf(w, "\n")
	}
}

// WriteFig8 renders Figures 8a and 8b as scatter data: one point per (loop,
// factor) pairing u&u speedup against unroll speedup (8a) and per loop
// against unmerge speedup (8b). Points below the diagonal favour u&u.
func WriteFig8(w io.Writer, r *Results) {
	fmt.Fprintf(w, "Figure 8a: per-loop speedups, x = u&u, y = unroll (same loop & factor)\n")
	fmt.Fprintf(w, "%-16s %-5s %-3s %9s %9s\n", "app", "loop", "u", "uu", "unroll")
	for _, app := range appsOf(r) {
		base := r.Baseline[app]
		for loop := 0; loop < r.LoopCount[app]; loop++ {
			for _, u := range r.Factors {
				uu := findRec(r, app, pipeline.UU, loop, u)
				un := findRec(r, app, pipeline.UnrollOnly, loop, u)
				if uu == nil || un == nil || uu.Skipped != "" || un.Skipped != "" {
					continue
				}
				fmt.Fprintf(w, "%-16s %-5d %-3d %9.3f %9.3f\n", app, loop, u, uu.Speedup(base), un.Speedup(base))
			}
		}
	}
	fmt.Fprintf(w, "\nFigure 8b: per-loop speedups, x = u&u (best factor), y = unmerge\n")
	fmt.Fprintf(w, "%-16s %-5s %9s %9s\n", "app", "loop", "uu", "unmerge")
	for _, app := range appsOf(r) {
		base := r.Baseline[app]
		for loop := 0; loop < r.LoopCount[app]; loop++ {
			um := findRec(r, app, pipeline.UnmergeOnly, loop, 1)
			if um == nil || um.Skipped != "" {
				continue
			}
			var bestUU *RunRecord
			for _, u := range r.Factors {
				rec := findRec(r, app, pipeline.UU, loop, u)
				if rec == nil || rec.Skipped != "" {
					continue
				}
				if bestUU == nil || rec.Speedup(base) > bestUU.Speedup(base) {
					bestUU = rec
				}
			}
			if bestUU == nil {
				continue
			}
			fmt.Fprintf(w, "%-16s %-5d %9.3f %9.3f\n", app, loop, bestUU.Speedup(base), um.Speedup(base))
		}
	}
}

// WriteCounterReport renders the nvprof-style counter comparison the paper's
// Section V builds its analysis on, for one application and configuration
// pair.
func WriteCounterReport(w io.Writer, r *Results, app string, rec *RunRecord) {
	base := r.Baseline[app]
	bm, m := base.Metrics, rec.Metrics
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	fmt.Fprintf(w, "%s: %s loop=%d u=%d vs baseline\n", app, rec.Config, rec.LoopID, rec.Factor)
	fmt.Fprintf(w, "  kernel time          %10.4f ms -> %10.4f ms (speedup %.3fx)\n", base.Millis, rec.Millis, rec.Speedup(base))
	fmt.Fprintf(w, "  inst_misc            %10d -> %10d (%.2fx)\n", bm.ClassThread[1], m.ClassThread[1], ratio(m.ClassThread[1], bm.ClassThread[1]))
	fmt.Fprintf(w, "  inst_control         %10d -> %10d (%.2fx)\n", bm.ClassThread[2], m.ClassThread[2], ratio(m.ClassThread[2], bm.ClassThread[2]))
	fmt.Fprintf(w, "  inst_compute         %10d -> %10d (%.2fx)\n", bm.ClassThread[0], m.ClassThread[0], ratio(m.ClassThread[0], bm.ClassThread[0]))
	fmt.Fprintf(w, "  gld_transactions     %10d -> %10d (%.2fx)\n", bm.GldTransactions, m.GldTransactions, ratio(m.GldTransactions, bm.GldTransactions))
	fmt.Fprintf(w, "  warp_exec_efficiency %10.2f%% -> %9.2f%%\n", bm.WarpExecutionEfficiency(r.Device)*100, m.WarpExecutionEfficiency(r.Device)*100)
	fmt.Fprintf(w, "  stall_inst_fetch     %10.2f%% -> %9.2f%%\n", bm.StallInstFetchPct()*100, m.StallInstFetchPct()*100)
	fmt.Fprintf(w, "  IPC                  %10.3f -> %10.3f\n", bm.IPC(), m.IPC())
}

func findRec(r *Results, app string, cfg pipeline.Config, loop, factor int) *RunRecord {
	for _, rec := range r.PerLoop {
		if rec.App == app && rec.Config == cfg && rec.LoopID == loop && rec.Factor == factor {
			return rec
		}
	}
	return nil
}
