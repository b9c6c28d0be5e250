// Command uutop is a live terminal dashboard for a running uud daemon: it
// polls GET /stats and renders request rate, queue and in-flight levels,
// cache effectiveness, shed and error rates, and per-phase latency
// quantiles against a configurable SLO with a 99% target and error-budget
// burn — everything an operator watches during a load drill or a drain.
//
// The quantiles are the server's own (serve.Latency, ≤ 3.1% relative error
// — docs/OBSERVABILITY.md). Rates and the SLO window are differences
// between consecutive polls; the SLO counts come from Latency.Within, which
// only grows, so a window's count is exact.
//
// Usage:
//
//	uutop -addr http://localhost:8077
//	uutop -interval 1s -slo 250ms -n 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"uu/cmd/internal/cli"
	"uu/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is uutop's parsed command line.
type options struct {
	addr     string
	interval time.Duration
	n        int
	slo      time.Duration
	noClear  bool
}

// sloTargetPct is the percent of requests that must meet the SLO.
const sloTargetPct = 99

func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("uutop", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "http://localhost:8077", "uud base URL (a bare host:port gets http:// prepended)")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "poll interval")
	fs.IntVar(&o.n, "n", 0, "number of polls (0 = until interrupted)")
	fs.DurationVar(&o.slo, "slo", 500*time.Millisecond, "end-to-end latency SLO threshold")
	fs.BoolVar(&o.noClear, "no-clear", false, "append frames instead of redrawing in place")
	return fs
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	if code, ok := cli.Parse(flags(&o), args, stderr); !ok {
		return code
	}
	return cli.Exit("uutop", stderr, 0, poll(&o, stdout))
}

// poll fetches /stats o.n times (until interrupted when 0) and draws a
// frame after each.
func poll(o *options, stdout io.Writer) error {
	base := strings.TrimSuffix(o.addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	var prev *serve.Stats
	for i := 0; o.n == 0 || i < o.n; i++ {
		if i > 0 {
			time.Sleep(o.interval)
		}
		cur, err := fetch(base + "/stats")
		if err != nil {
			return err
		}
		if !o.noClear {
			fmt.Fprint(stdout, "\033[H\033[2J") // cursor home + clear
		}
		fmt.Fprint(stdout, render(cur, prev, time.Now(), base, o))
		prev = cur
	}
	return nil
}

func fetch(url string) (*serve.Stats, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var s serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("GET %s: %v", url, err)
	}
	return &s, nil
}

// render draws one dashboard frame; prev is the previous poll's stats (nil
// on the first frame).
func render(cur, prev *serve.Stats, at time.Time, addr string, o *options) string {
	var sb strings.Builder
	rate := func(name string) float64 {
		if prev == nil {
			return 0
		}
		return float64(cur.Counters[name]-prev.Counters[name]) / o.interval.Seconds()
	}

	requests := cur.Counters["serve_requests_total"]
	hitPct, coalPct := 0.0, 0.0
	if requests > 0 {
		hitPct = 100 * float64(cur.Counters["serve_cache_hits_total"]) / float64(requests)
		coalPct = 100 * float64(cur.Counters["serve_coalesced_total"]) / float64(requests)
	}
	errRate := rate("serve_failed_total") + rate("serve_panics_total") +
		rate("serve_deadline_expired_total") + rate("serve_canceled_total") + rate("serve_malformed_total")

	draining := "no"
	if cur.Draining {
		draining = "YES"
	}

	fmt.Fprintf(&sb, "uutop — %s   %s\n\n", addr, at.Format("15:04:05"))
	fmt.Fprintf(&sb, "requests %8d  %7.1f/s     cache hit %5.1f%%   coalesced %5.1f%%\n",
		requests, rate("serve_requests_total"), hitPct, coalPct)
	fmt.Fprintf(&sb, "compiles %8d  %7.1f/s     shed %7.1f/s    errors %7.1f/s\n",
		cur.Counters["serve_compiles_total"], rate("serve_compiles_total"), rate("serve_shed_total"), errRate)
	fmt.Fprintf(&sb, "queue %2d/%-2d   inflight req %2d  exec %2d/%-2d   cache %4d entries   draining %s\n\n",
		cur.QueueDepth, cur.QueueCap,
		cur.Gauges["serve_inflight_requests"], cur.Gauges["serve_inflight_executions"],
		cur.Workers, cur.CacheEntries, draining)

	row := func(name string, l serve.Latency) {
		fmt.Fprintf(&sb, "%-10s %9d %9s %9s %9s\n", name, l.Count, fmtMs(l.P50Ms), fmtMs(l.P95Ms), fmtMs(l.P99Ms))
	}
	fmt.Fprintf(&sb, "%-10s %9s %9s %9s %9s\n", "phase", "count", "p50", "p95", "p99")
	for _, name := range serve.PhaseNames {
		row(name, cur.Phases[name])
	}
	row("request", cur.Request)
	sb.WriteString("\n")
	var prevReq *serve.Latency
	if prev != nil {
		prevReq = &prev.Request
	}
	sb.WriteString(sloLines(cur.Request, prevReq, o.slo))
	return sb.String()
}

// sloLines renders SLO compliance and error-budget burn, cumulative and,
// once there is a previous poll, for the window since it. A request meets
// the SLO when its bucket's bound does (Latency.Within). Burn 1.0 means
// violations arrive exactly at the budgeted rate; above 1 the budget is
// being consumed faster.
func sloLines(cur serve.Latency, prev *serve.Latency, slo time.Duration) string {
	const budget = 1 - sloTargetPct/100.0
	ms := float64(slo) / float64(time.Millisecond)
	line := func(label string, within, count int64) string {
		if count == 0 {
			return fmt.Sprintf("SLO %s @ %d%% [%s]: no traffic\n", slo, sloTargetPct, label)
		}
		okFrac := float64(within) / float64(count)
		return fmt.Sprintf("SLO %s @ %d%% [%s]: %.2f%% within, burn %.2fx\n",
			slo, sloTargetPct, label, 100*okFrac, (1-okFrac)/budget)
	}
	out := line("total", cur.Within(ms), cur.Count)
	if prev != nil {
		out += line("window", cur.Within(ms)-prev.Within(ms), cur.Count-prev.Count)
	}
	return out
}

// fmtMs renders a milliseconds value with an adaptive unit.
func fmtMs(ms float64) string {
	switch {
	case ms <= 0:
		return "-"
	case ms < 1:
		return fmt.Sprintf("%.0fµs", ms*1e3)
	case ms < 1e3:
		return fmt.Sprintf("%.1fms", ms)
	}
	return fmt.Sprintf("%.2fs", ms/1e3)
}
