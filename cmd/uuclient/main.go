// Command uuclient is the load client for uud: it submits one compile
// request — or a concurrent batch of copies of it — and reports per-request
// latency and outcome statistics. The request is the one positional
// argument, a POST /compile body exactly as curl -d would send it (the JSON
// object serve.Request documents) or @file to read it from a file, so
// every request field is reachable. Shed (429) and drain (503) responses and
// transport errors are retried with a capped-exponential, full-jitter
// backoff, honoring the server's Retry-After hint as a floor; structured
// 4xx/5xx outcomes are permanent and reported as such.
//
// Every response carries the server's request ID and per-phase timing
// attribution; uuclient reports the server-attributed totals next to the
// client-observed wall clock, so the skew (network + encode + client
// overhead) is visible at a glance, and -trace saves a server-side
// request trace for chrome://tracing.
//
// Usage:
//
//	uuclient '{"app":"xsbench","config":"uu","factor":2}'
//	uuclient -n 200 -c 8 -summary out.json '{"app":"complex","config":"uu-heuristic"}'
//	uuclient -trace trace.json @request.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uu/cmd/internal/cli"
	"uu/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is uuclient's parsed command line.
type options struct {
	addr     string
	n, c     int
	attempts int
	seed     int64
	summary  string
	trace    string
	quiet    bool
}

func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("uuclient", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "http://localhost:8077", "uud base URL")
	fs.IntVar(&o.n, "n", 1, "total requests")
	fs.IntVar(&o.c, "c", 1, "concurrent clients")
	fs.IntVar(&o.attempts, "attempts", 5, "max tries per request (shed/transport retries)")
	fs.Int64Var(&o.seed, "seed", 0, "backoff jitter seed (0 = nondeterministic)")
	fs.StringVar(&o.summary, "summary", "", "write the latency/outcome summary JSON to this file")
	fs.StringVar(&o.trace, "trace", "", "request a server-side trace (?trace=1) and write it to this file (single request only)")
	fs.BoolVar(&o.quiet, "q", false, "suppress the single-request response dump")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: uuclient [flags] '<request JSON>' | @file")
		fs.PrintDefaults()
	}
	return fs
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flags(&o)
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	code, err := load(&o, fs.Arg(0), stdout, stderr)
	return cli.Exit("uuclient", stderr, code, err)
}

// load sends the request o.n times and reports; the exit code is 1 when no
// request succeeded.
func load(o *options, request string, stdout, stderr io.Writer) (int, error) {
	switch {
	case o.n < 1:
		return 0, fmt.Errorf("-n %d: want at least one request", o.n)
	case o.trace != "" && o.n > 1:
		return 0, fmt.Errorf("-trace takes a single request (got -n %d)", o.n)
	}
	body := []byte(request)
	if path, ok := strings.CutPrefix(request, "@"); ok {
		var err error
		if body, err = os.ReadFile(path); err != nil {
			return 0, err
		}
	}

	res := runLoad(o.addr, body, o.n, o.c, o.attempts, o.seed, o.trace != "")
	last := res.last // what a single request's report is about
	if o.n == 1 && !o.quiet && last.body != "" {
		fmt.Fprintln(stdout, last.body)
	}
	fmt.Fprintf(stderr, "uuclient: %d requests, %d ok (%d cached, %d coalesced), %d failed, %d retries; p50 %.1fms p99 %.1fms max %.1fms\n",
		res.Requests, res.OK, res.Cached, res.Coalesced, res.Failed, res.Retries, res.P50Ms, res.P99Ms, res.MaxMs)
	if res.OK > 0 && res.ServerP50Ms > 0 {
		// Server-attributed vs client-observed: the skew is network +
		// response encode + client-side overhead the server cannot see.
		fmt.Fprintf(stderr, "uuclient: server-attributed p50 %.1fms p99 %.1fms; client-server skew p50 %.1fms p99 %.1fms\n",
			res.ServerP50Ms, res.ServerP99Ms, res.SkewP50Ms, res.SkewP99Ms)
	}
	if p := last.resp.Phases; o.n == 1 && p != nil {
		fmt.Fprintf(stderr, "uuclient: %s phases (ms): frontend %.2f resolve %.2f admission %.2f compile %.2f simulate %.2f | server total %.2f, client observed %.2f\n",
			last.resp.RequestID, p.FrontendMs, p.ResolveMs, p.AdmissionMs, p.CompileMs, p.SimulateMs, p.TotalMs, res.MaxMs)
	}
	codes := make([]string, 0, len(res.Errors))
	for code := range res.Errors {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Fprintf(stderr, "uuclient:   %s: %d\n", code, res.Errors[code])
	}
	if o.n == 1 && last.err != "" {
		fmt.Fprintf(stderr, "uuclient:   %s\n", last.err)
	}
	if o.trace != "" {
		if last.resp.TraceJSON == "" {
			return 0, fmt.Errorf("no trace in the response (need a 200 from a telemetry-enabled server)")
		}
		if err := os.WriteFile(o.trace, []byte(last.resp.TraceJSON), 0o644); err != nil {
			return 0, err
		}
		fmt.Fprintf(stderr, "uuclient: trace written to %s\n", o.trace)
	}
	if o.summary != "" {
		b, _ := json.MarshalIndent(res, "", "  ") // a Summary always encodes
		if err := os.WriteFile(o.summary, b, 0o644); err != nil {
			return 0, err
		}
	}
	if res.OK == 0 {
		return 1, nil
	}
	return 0, nil
}

// Summary is the machine-readable outcome of a load run. The client/server
// split: P*Ms are client-observed wall clocks (network and encode
// included); ServerP*Ms are the server-attributed totals from each
// response's "phases" block; SkewP*Ms their per-request difference — the
// time the server cannot account for (network, response encode, client
// overhead).
type Summary struct {
	Requests  int            `json:"requests"`
	OK        int            `json:"ok"`
	Failed    int            `json:"failed"`
	Cached    int            `json:"cached"`
	Coalesced int            `json:"coalesced"`
	Retries   int            `json:"retries"`
	Errors    map[string]int `json:"errors,omitempty"` // structured code → count
	P50Ms     float64        `json:"p50_ms"`
	P99Ms     float64        `json:"p99_ms"`
	MaxMs     float64        `json:"max_ms"`

	ServerP50Ms float64 `json:"server_p50_ms,omitempty"`
	ServerP99Ms float64 `json:"server_p99_ms,omitempty"`
	SkewP50Ms   float64 `json:"skew_p50_ms,omitempty"`
	SkewP99Ms   float64 `json:"skew_p99_ms,omitempty"`

	last outcome // of the final request: what a single-request run reports
}

// outcome is one request's final result after retries.
type outcome struct {
	ok      bool
	code    string // a failure's structured code
	err     string // a failure's "<code>: <server's message>"
	retries int
	ms      float64
	body    string         // a 200's body as received
	resp    serve.Response // and decoded
}

// runLoad fires n copies of body at the server over c workers, retrying
// shed/transport failures with jittered backoff, and aggregates outcomes.
func runLoad(addr string, body []byte, n, c, attempts int, seed int64, wantTrace bool) *Summary {
	outcomes := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{}
	if c < 1 {
		c = 1
	}
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			jitter := rand.Float64
			if seed != 0 {
				// Per-worker deterministic jitter for reproducible drills.
				jitter = rand.New(rand.NewSource(seed + int64(worker))).Float64
			}
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				outcomes[i] = fire(client, addr, body, attempts, jitter, wantTrace)
			}
		}(w)
	}
	wg.Wait()

	res := &Summary{Requests: n, Errors: map[string]int{}, last: outcomes[n-1]}
	var lat, srv, skew []float64
	for _, o := range outcomes {
		res.Retries += o.retries
		if o.ok {
			res.OK++
			lat = append(lat, o.ms)
			if o.resp.Cached {
				res.Cached++
			}
			if o.resp.Coalesced {
				res.Coalesced++
			}
			if p := o.resp.Phases; p != nil {
				srv = append(srv, p.TotalMs)
				skew = append(skew, o.ms-p.TotalMs)
			}
		} else {
			res.Failed++
			res.Errors[o.code]++
		}
	}
	pct := func(vals []float64, p float64) float64 {
		if len(vals) == 0 {
			return 0
		}
		sort.Float64s(vals)
		return vals[int(p*float64(len(vals)-1))]
	}
	res.P50Ms, res.P99Ms = pct(lat, 0.50), pct(lat, 0.99)
	if len(lat) > 0 {
		res.MaxMs = lat[len(lat)-1]
	}
	res.ServerP50Ms, res.ServerP99Ms = pct(srv, 0.50), pct(srv, 0.99)
	res.SkewP50Ms, res.SkewP99Ms = pct(skew, 0.50), pct(skew, 0.99)
	return res
}

// The retry schedule: the delay before retry n (0-based) is drawn from
// (0, d], d = backoffBase·2^n capped at backoffMax. Full jitter
// decorrelates clients that were shed by the same overload event.
const (
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// backoff returns the delay before retry n for a jitter draw u in [0, 1):
// never zero (that would turn the retry loop into a busy spin), never more
// than the schedule.
func backoff(n int, u float64) time.Duration {
	d := backoffBase
	for i := 0; i < n && d < backoffMax; i++ {
		d *= 2
	}
	return max(time.Duration(float64(min(d, backoffMax))*(1-u)), 1)
}

// fire issues one request, trying at most attempts times. Shed (429), drain
// (503), and transport errors are retried after backoff(n, jitter()), or
// after the server's latest Retry-After hint if that is longer; everything
// else — including structured compile failures, panics (500), and deadline
// expiry (504) — is permanent.
func fire(client *http.Client, addr string, body []byte, attempts int, jitter func() float64, wantTrace bool) (o outcome) {
	url := addr + "/compile"
	if wantTrace {
		url += "?trace=1"
	}
	var retryAfter time.Duration
	try := func() (transient bool, err error) {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			o.code = "transport"
			return true, errors.New("transport: " + err.Error())
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == 200 {
			_ = json.Unmarshal(data, &o.resp) // a 200 that does not decode still counts; its report is blank
			o.ok, o.body = true, string(data)
			return false, nil
		}
		var e serve.Error
		if jerr := json.Unmarshal(data, &e); jerr != nil || e.Code == "" {
			e.Code = fmt.Sprintf("http-%d", resp.StatusCode)
		}
		o.code = e.Code
		err = errors.New(e.Code + ": " + e.Msg)
		if resp.StatusCode == 429 || resp.StatusCode == 503 {
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil {
				retryAfter = time.Duration(secs) * time.Second
			}
			return true, err
		}
		return false, err
	}
	start := time.Now()
	for {
		transient, err := try()
		if err == nil || !transient || o.retries >= attempts-1 {
			o.ms = float64(time.Since(start).Microseconds()) / 1e3
			if err != nil {
				o.err = err.Error()
			}
			return o
		}
		time.Sleep(max(backoff(o.retries, jitter()), retryAfter))
		o.retries++
	}
}
