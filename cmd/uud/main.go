// Command uud is the compile-as-a-service daemon: it exposes the
// repository's whole pipeline — MiniCU frontend, unmerge/unroll pipeline,
// VPTX codegen, SIMT simulation — behind a long-running HTTP/JSON API with
// bounded concurrency, per-request deadlines, panic isolation, load
// shedding, a content-addressed result cache, and graceful drain.
//
// Usage:
//
//	uud -addr :8077 -workers 8 -queue 16
//
//	curl -s localhost:8077/compile -d '{
//	  "app": "xsbench", "config": "uu", "loop": 0, "factor": 2,
//	  "device": "V100", "deadline_ms": 30000
//	}'
//
// cmd/uuclient takes the same body as its argument and adds retries, load
// (-n/-c) and latency reporting.
//
// Endpoints: POST /compile (append ?trace=1 for a request-scoped trace in
// the response), GET /stats (JSON, with per-phase latency quantiles), GET
// /metrics (Prometheus text exposition — point cmd/uutop or a scraper
// here), GET /trace (most recent sampled trace, or ?id=<request_id>), GET
// /healthz (liveness — 200 even while draining), GET /readyz (readiness —
// 503 once drain begins). SIGTERM/SIGINT stops intake (503 + Retry-After),
// finishes or cancels in-flight work by the drain deadline, flushes final
// stats, and exits 0. See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uu/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8077", "listen address")
		workers  = flag.Int("workers", 0, "compile/simulate pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "admission queue depth; a full queue sheds 429 (0 = 2*workers)")
		cacheN   = flag.Int("cache", 256, "result cache capacity (entries, LRU)")
		deadline = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDl    = flag.Duration("max-deadline", 2*time.Minute, "cap on client-supplied deadlines")
		drainTO  = flag.Duration("drain-timeout", 15*time.Second, "how long SIGTERM waits for in-flight work before canceling it")
		quiet    = flag.Bool("q", false, "suppress lifecycle logging")

		traceSample = flag.Int("trace-sample", 0, "trace every N-th request into the GET /trace ring (1 = all, 0 = off)")
		accessLog   = flag.String("access-log", "", "write one JSON line per request to this file (\"-\" = stderr)")
	)
	flag.Parse()

	opts := serve.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cacheN,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDl,
		TraceSample:     *traceSample,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	switch *accessLog {
	case "":
	case "-":
		opts.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uud:", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.AccessLog = f
	}
	s := serve.New(opts)

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "uud: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "uud:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process immediately

	fmt.Fprintf(os.Stderr, "uud: signal received, draining (timeout %s)\n", *drainTO)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// Stop intake first (new requests see 503 while the listener winds
	// down), then let in-flight work finish or be canceled at the deadline.
	s.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "uud: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "uud: drained, exiting")
}
