// Command uutop is a live terminal dashboard for a running uud daemon: it
// polls GET /metrics (the Prometheus text exposition) and renders request
// rate, queue and in-flight levels, cache effectiveness, shed and error
// rates, and per-phase latency quantiles against a configurable SLO with
// error-budget burn — everything an operator watches during a load drill
// or a drain, with no dependency beyond the standard library.
//
// Rates and the SLO window are computed from the delta between
// consecutive scrapes; quantiles come from the cumulative histogram
// buckets (log-linear, ≤ 3.1% relative error — docs/OBSERVABILITY.md).
//
// Usage:
//
//	uutop -addr http://localhost:8077
//	uutop -interval 1s -slo 250ms -slo-target 99 -n 10
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8077", "uud base URL (a bare host:port gets http:// prepended)")
		interval  = flag.Duration("interval", 2*time.Second, "poll interval")
		n         = flag.Int("n", 0, "number of polls (0 = until interrupted)")
		slo       = flag.Duration("slo", 500*time.Millisecond, "end-to-end latency SLO threshold")
		sloTarget = flag.Float64("slo-target", 99, "percent of requests that must meet the SLO")
		noClear   = flag.Bool("no-clear", false, "append frames instead of redrawing in place")
	)
	flag.Parse()
	base := strings.TrimSuffix(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	var prev *scrape
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		cur, err := fetch(base + "/metrics")
		if err != nil {
			fmt.Fprintln(os.Stderr, "uutop:", err)
			os.Exit(1)
		}
		if !*noClear {
			fmt.Print("\033[H\033[2J") // cursor home + clear
		}
		fmt.Print(render(cur, prev, *interval, base, *slo, *sloTarget))
		prev = cur
	}
}

func fetch(url string) (*scrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: status %d (is uud running with telemetry enabled?)", url, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// scrape is one parsed /metrics exposition: scalar samples keyed by
// "name" or `name{labels}`, histograms keyed by family plus non-le
// labels.
type scrape struct {
	at      time.Time
	samples map[string]float64
	hists   map[string]*hist
}

// hist is one histogram series: cumulative bucket counts in le order.
type hist struct {
	buckets []bkt
	sum     float64
	count   float64
}

type bkt struct {
	le  float64 // upper bound, seconds (+Inf = math.Inf)
	cum float64 // cumulative count ≤ le
}

// parseMetrics reads the Prometheus text exposition format (the subset
// internal/telemetry emits: no escaping inside label values, one
// optional label plus le).
func parseMetrics(r io.Reader) (*scrape, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := &scrape{at: time.Now(), samples: map[string]float64{}, hists: map[string]*hist{}}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		key, valStr := line[:sp], line[sp+1:]
		var val float64
		if _, err := fmt.Sscanf(valStr, "%g", &val); err != nil {
			continue
		}
		name, labels := splitLabels(key)
		if le, rest, ok := extractLe(labels); ok && strings.HasSuffix(name, "_bucket") {
			fam := strings.TrimSuffix(name, "_bucket")
			h := s.histFor(fam, rest)
			h.buckets = append(h.buckets, bkt{le: le, cum: val})
			continue
		}
		switch {
		case strings.HasSuffix(name, "_sum") && s.maybeHist(strings.TrimSuffix(name, "_sum"), labels):
			s.histFor(strings.TrimSuffix(name, "_sum"), labels).sum = val
		case strings.HasSuffix(name, "_count") && s.maybeHist(strings.TrimSuffix(name, "_count"), labels):
			s.histFor(strings.TrimSuffix(name, "_count"), labels).count = val
		default:
			s.samples[key] = val
		}
	}
	for _, h := range s.hists {
		sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
	}
	return s, nil
}

// splitLabels separates `name{a="b"}` into name and `a="b"`.
func splitLabels(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// extractLe pulls the le label out of a label block, returning the bound
// in seconds and the remaining labels.
func extractLe(labels string) (le float64, rest string, ok bool) {
	var kept []string
	for _, part := range strings.Split(labels, ",") {
		if strings.HasPrefix(part, `le="`) {
			v := strings.TrimSuffix(strings.TrimPrefix(part, `le="`), `"`)
			if v == "+Inf" {
				le, ok = inf(), true
				continue
			}
			if _, err := fmt.Sscanf(v, "%g", &le); err == nil {
				ok = true
			}
			continue
		}
		if part != "" {
			kept = append(kept, part)
		}
	}
	return le, strings.Join(kept, ","), ok
}

func inf() float64 { return math.Inf(1) }

// histKey joins a family name with its non-le labels.
func histKey(fam, labels string) string {
	if labels == "" {
		return fam
	}
	return fam + "{" + labels + "}"
}

func (s *scrape) histFor(fam, labels string) *hist {
	k := histKey(fam, labels)
	h := s.hists[k]
	if h == nil {
		h = &hist{}
		s.hists[k] = h
	}
	return h
}

// maybeHist reports whether a _sum/_count sample belongs to a histogram
// already seen (its _bucket lines precede it in the exposition).
func (s *scrape) maybeHist(fam, labels string) bool {
	_, ok := s.hists[histKey(fam, labels)]
	return ok
}

func (s *scrape) value(key string) float64 { return s.samples[key] }

// quantile extracts a quantile from cumulative buckets: the upper bound
// of the first bucket reaching rank q·count, with linear interpolation
// inside the bucket (the histogram_quantile convention). Returns seconds.
func (h *hist) quantile(q float64) float64 {
	if h == nil || h.count == 0 || len(h.buckets) == 0 {
		return 0
	}
	rank := q * h.count
	var prevCum, prevLe float64
	for _, b := range h.buckets {
		if b.cum >= rank {
			if b.le >= inf() {
				return prevLe // open-ended top bucket: report the last finite bound
			}
			inBucket := b.cum - prevCum
			if inBucket <= 0 {
				return b.le
			}
			frac := (rank - prevCum) / inBucket
			return prevLe + (b.le-prevLe)*frac
		}
		prevCum, prevLe = b.cum, b.le
	}
	return prevLe
}

// countAtOrBelow returns the cumulative count at the first bucket bound
// ≥ thresh (seconds).
func (h *hist) countAtOrBelow(thresh float64) float64 {
	if h == nil {
		return 0
	}
	for _, b := range h.buckets {
		if b.le >= thresh {
			return b.cum
		}
	}
	if n := len(h.buckets); n > 0 {
		return h.buckets[n-1].cum
	}
	return 0
}

// delta returns the per-window histogram cur − prev (both cumulative).
// A nil prev (first frame) returns cur.
func (h *hist) delta(prev *hist) *hist {
	if prev == nil {
		return h
	}
	d := &hist{sum: h.sum - prev.sum, count: h.count - prev.count}
	prevCum := map[float64]float64{}
	for _, b := range prev.buckets {
		prevCum[b.le] = b.cum
	}
	for _, b := range h.buckets {
		d.buckets = append(d.buckets, bkt{le: b.le, cum: b.cum - prevCum[b.le]})
	}
	return d
}

// phaseOrder mirrors serve.phaseNames; unknown phases render after these.
var phaseOrder = []string{"frontend", "resolve", "admission", "compile", "simulate", "encode"}

// render draws one dashboard frame.
func render(cur, prev *scrape, interval time.Duration, addr string, slo time.Duration, sloTarget float64) string {
	var sb strings.Builder
	secs := interval.Seconds()
	rate := func(name string) float64 {
		if prev == nil {
			return 0
		}
		return (cur.value(name) - prev.value(name)) / secs
	}

	requests := cur.value("serve_requests_total")
	hits, coal := cur.value("serve_cache_hits_total"), cur.value("serve_coalesced_total")
	hitPct, coalPct := 0.0, 0.0
	if requests > 0 {
		hitPct = 100 * hits / requests
		coalPct = 100 * coal / requests
	}
	errRate := rate("serve_failed_total") + rate("serve_panics_total") +
		rate("serve_deadline_expired_total") + rate("serve_canceled_total") + rate("serve_malformed_total")

	draining := "no"
	if cur.value("serve_draining") > 0 {
		draining = "YES"
	}

	fmt.Fprintf(&sb, "uutop — %s   %s\n\n", addr, cur.at.Format("15:04:05"))
	fmt.Fprintf(&sb, "requests %8.0f  %7.1f/s     cache hit %5.1f%%   coalesced %5.1f%%\n",
		requests, rate("serve_requests_total"), hitPct, coalPct)
	fmt.Fprintf(&sb, "compiles %8.0f  %7.1f/s     shed %7.1f/s    errors %7.1f/s\n",
		cur.value("serve_compiles_total"), rate("serve_compiles_total"), rate("serve_shed_total"), errRate)
	fmt.Fprintf(&sb, "queue %2.0f/%-2.0f   inflight req %2.0f  exec %2.0f/%-2.0f   cache %4.0f entries   draining %s\n\n",
		cur.value("serve_queue_depth"), cur.value("serve_queue_capacity"),
		cur.value("serve_inflight_requests"), cur.value("serve_inflight_executions"),
		cur.value("serve_workers"), cur.value("serve_cache_entries"), draining)

	fmt.Fprintf(&sb, "%-10s %9s %9s %9s %9s\n", "phase", "count", "p50", "p95", "p99")
	for _, name := range phaseRows(cur) {
		h := cur.hists[`serve_phase_seconds{phase="`+name+`"}`]
		if h == nil {
			continue
		}
		fmt.Fprintf(&sb, "%-10s %9.0f %9s %9s %9s\n", name, h.count,
			fmtSec(h.quantile(0.50)), fmtSec(h.quantile(0.95)), fmtSec(h.quantile(0.99)))
	}
	req := cur.hists["serve_request_seconds"]
	if req != nil {
		fmt.Fprintf(&sb, "%-10s %9.0f %9s %9s %9s\n\n", "request", req.count,
			fmtSec(req.quantile(0.50)), fmtSec(req.quantile(0.95)), fmtSec(req.quantile(0.99)))
		sb.WriteString(sloLine(req, prevHist(prev, "serve_request_seconds"), slo, sloTarget))
	}
	return sb.String()
}

// phaseRows lists the phases to render: those of phaseOrder first, in its
// order, then every other phase the scrape holds, sorted.
func phaseRows(cur *scrape) []string {
	var extra []string
	for key := range cur.hists {
		rest, ok := strings.CutPrefix(key, `serve_phase_seconds{phase="`)
		name := strings.TrimSuffix(rest, `"}`)
		if ok && !slices.Contains(phaseOrder, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(phaseOrder[:len(phaseOrder):len(phaseOrder)], extra...)
}

func prevHist(prev *scrape, key string) *hist {
	if prev == nil {
		return nil
	}
	return prev.hists[key]
}

// sloLine renders SLO compliance and error-budget burn, cumulative and
// for the current window. Burn 1.0 means violations arrive exactly at
// the budgeted rate; above 1 the budget is being consumed faster.
func sloLine(req, prevReq *hist, slo time.Duration, targetPct float64) string {
	budget := 1 - targetPct/100
	if budget <= 0 {
		budget = 1e-9
	}
	line := func(label string, h *hist) string {
		if h == nil || h.count == 0 {
			return fmt.Sprintf("SLO %s @ %.4g%% [%s]: no traffic\n", slo, targetPct, label)
		}
		okFrac := h.countAtOrBelow(slo.Seconds()) / h.count
		burn := (1 - okFrac) / budget
		return fmt.Sprintf("SLO %s @ %.4g%% [%s]: %.2f%% within, burn %.2fx\n",
			slo, targetPct, label, 100*okFrac, burn)
	}
	out := line("total", req)
	if prevReq != nil {
		out += line("window", req.delta(prevReq))
	}
	return out
}

// fmtSec renders a seconds value with an adaptive unit.
func fmtSec(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	}
	return fmt.Sprintf("%.2fs", s)
}
