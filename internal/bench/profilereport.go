package bench

import (
	"fmt"
	"io"

	"uu/internal/core"
	"uu/internal/profile"
)

// WriteProfileReport renders the hotspot profiles of a sweep run with
// HarnessOptions.Profile: for every application, the baseline and heuristic
// hotspot tables plus the heuristic's predicted-benefit-vs-measured-cycles
// table, which makes mispredictions of the f(p, s, u) < C size model
// visible per loop. Output is deterministic across Workers.
func WriteProfileReport(w io.Writer, r *Results) error {
	c := core.DefaultHeuristicParams().C
	for _, app := range appsOf(r) {
		for _, rec := range []*RunRecord{r.Baseline[app], r.Heuristic[app]} {
			if rec == nil || rec.Profile == nil {
				continue
			}
			rep := profile.Build(rec.Program, rec.Profile)
			fmt.Fprintf(w, "=== %s (%s) ===\n", app, rec.Config)
			if err := profile.WriteHotspots(w, rep); err != nil {
				return err
			}
			if rec == r.Heuristic[app] {
				fmt.Fprintln(w)
				if err := profile.WritePrediction(w, rep, rec.Stats.Decisions, rec.Stats.Skips, c); err != nil {
					return err
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
