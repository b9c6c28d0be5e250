package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// auditSet holds one set of runs: workload -> metric -> one value per run.
type auditSet map[string]map[string][]float64

// runAudit applies the acceptance rule the benchmark is held to, to the
// benchmark itself. It runs every workload in n rounds; a round runs each
// workload twice, once for set A and once for set B, every run in a process
// of its own (set-up is measured from process start) and with a seed of its
// own. Two sets taken alternately see the same drift of the box, so what
// separates their medians is the benchmark's own noise. It prints a Markdown
// table, one row per workload and metric: the end-to-end metrics against
// their bounds, and the timed section's clocks against the bound they would
// need to be end-to-end metrics.
func runAudit(w io.Writer, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]auditSet{{}, {}}
	seed := 0
	for round := 0; round < n; round++ {
		for _, wl := range workloads {
			for _, set := range sets {
				seed++
				r, err := auditRun(self, wl.Name, seed)
				if err != nil {
					return fmt.Errorf("audit: %s, seed %d: %w", wl.Name, seed, err)
				}
				if set[wl.Name] == nil {
					set[wl.Name] = map[string][]float64{}
				}
				for name, m := range r.Metrics {
					set[wl.Name][name] = append(set[wl.Name][name], m.Value)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "uuperf: audit round %d of %d done\n", round+1, n)
	}
	writeAudit(w, sets, n)
	return nil
}

// auditRun runs one workload untraced in a child process and merges the
// reports it prints, the clocks and the end-to-end metrics, into one.
func auditRun(self, workload string, seed int) (*report, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	all := &report{Metrics: map[string]metricValue{}}
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		var r report
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, err
		}
		if !r.Correct {
			return nil, fmt.Errorf("%d of %d ops failed", r.Failed, r.Attempted)
		}
		for name, m := range r.Metrics {
			all.Metrics[name] = m
		}
	}
	return all, nil
}

// auditRow is one workload x metric line of the audit.
type auditRow struct {
	medianA, medianB float64
	// spread is the distance between the first and third quartile as a
	// share of the median, the larger of the two sets' (what the driver
	// holds against the bound); worst is the largest |x - median| / median
	// of any run.
	spread, worst float64
	// shift is how much worse set B's median is than set A's, as a share
	// of A's; negative when B is better.
	shift float64
}

func newAuditRow(d metricDef, a, b []float64) auditRow {
	var r auditRow
	median := func(values []float64) float64 {
		q1, med, q3 := quartiles(values)
		r.spread = math.Max(r.spread, (q3-q1)/med)
		for _, v := range values {
			r.worst = math.Max(r.worst, math.Abs(v-med)/med)
		}
		return med
	}
	r.medianA, r.medianB = median(a), median(b)
	r.shift = (r.medianB - r.medianA) / r.medianA
	if d.Better == "higher" {
		r.shift = -r.shift
	}
	return r
}

// verdict holds a row against the metric's bound. The driver refuses a spread
// or a shift beyond the bound (FAIL). The benchmark holds itself to more: a
// spread within a third of the bound, and no single run further from its
// set's median than half the bound; a row that misses either reads "wide" and
// calls for more passes, or for the metric to leave the end-to-end list.
// setup_s is exempt from the spread, as the driver exempts it.
func (r auditRow) verdict(d metricDef) string {
	setup := d.Name == "setup_s"
	switch {
	case r.shift > d.Bound, !setup && r.spread > d.Bound:
		return "FAIL"
	case !setup && (r.spread > d.Bound/3 || r.worst > d.Bound/2):
		return "wide"
	}
	return "ok"
}

func writeAudit(w io.Writer, sets [2]auditSet, n int) {
	fmt.Fprintf(w, "Two sets of %d runs each, taken alternately, every run with its own seed.\n\n", n)
	fmt.Fprintln(w, "| workload | metric | unit | median A | median B | B worse by | spread (q3-q1)/median | worst run | bound | |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	for _, wl := range workloads {
		row := func(d metricDef, bound string) {
			r := newAuditRow(d, sets[0][wl.Name][d.Name], sets[1][wl.Name][d.Name])
			fmt.Fprintf(w, "| %s | %s | %s | %.8g | %.8g | %+.2f%% | %.2f%% | %.2f%% | %s | %s |\n",
				wl.Name, d.Name, d.Unit, r.medianA, r.medianB, 100*r.shift, 100*r.spread, 100*r.worst, bound, r.verdict(d))
		}
		for _, d := range endToEnd {
			row(d, fmt.Sprintf("%.4g%%", 100*d.Bound))
		}
		for _, d := range timing {
			d.Bound = timingBound
			row(d, fmt.Sprintf("none; %.4g%% to be end-to-end", 100*d.Bound))
		}
	}
}
