package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uu/internal/telemetry"
)

// Options configures a Server. The zero value picks sensible defaults.
type Options struct {
	// Workers is the compile/simulate pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds with
	// 429 + Retry-After. 0 means 2*Workers.
	QueueDepth int
	// CacheEntries bounds the LRU result cache; 0 means 256.
	CacheEntries int
	// DefaultDeadline applies to requests without deadline_ms; MaxDeadline
	// caps client-supplied deadlines. 0 means 30s / 2min.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// OnCompile, when non-nil, is invoked once per actual pool execution
	// with the request key — the hook the duplicate-submission benchmark
	// uses to assert that N identical requests compile exactly once.
	OnCompile func(key string)
	// Log, when non-nil, receives one line per lifecycle event (start,
	// drain, stats flush).
	Log io.Writer
	// AccessLog, when non-nil, receives one structured JSON line per
	// /compile request, carrying the request ID, outcome, and per-phase
	// timings (see docs/OBSERVABILITY.md).
	AccessLog io.Writer
	// TraceSample enables request-scoped tracing for every N-th /compile
	// request (1 = every request, 0 = off). Sampled traces are kept in a
	// small ring served by GET /trace; any single request can force its
	// own full trace with ?trace=1 regardless of the sample rate.
	TraceSample int
}

// maxBodyBytes bounds the request body; an oversized body is answered 413.
const maxBodyBytes = 1 << 20

func (o *Options) withDefaults() Options {
	d := *o
	if d.Workers <= 0 {
		d.Workers = runtime.GOMAXPROCS(0)
	}
	if d.QueueDepth <= 0 {
		d.QueueDepth = 2 * d.Workers
	}
	if d.CacheEntries <= 0 {
		d.CacheEntries = 256
	}
	if d.DefaultDeadline <= 0 {
		d.DefaultDeadline = 30 * time.Second
	}
	if d.MaxDeadline <= 0 {
		d.MaxDeadline = 2 * time.Minute
	}
	return d
}

// counter indexes the server's monotonic event counts.
type counter int

const (
	ctrRequests  counter = iota // every POST /compile received
	ctrCacheHits                // served straight from the LRU cache
	ctrIdentHits                // cache hits found by request identity, no IR built
	ctrCoalesced                // waited on another request's in-flight compile
	ctrCompiles                 // actual pool executions
	ctrShed                     // rejected 429 on a full queue
	ctrPanics                   // request executions that panicked (contained)
	ctrDeadline                 // executions canceled by deadline expiry (504)
	ctrCanceled                 // executions canceled otherwise (drain, client gone)
	ctrMalformed                // undecodable, oversized, or invalid requests
	ctrFailed                   // executions failing with a compile/exec error (422) or an unencodable response (500)
	numCounters
)

// counterNames names every counter, in render order — the one spelling
// /stats, the drain flush and /metrics all read. Each one is documented in
// docs/METRICS.md; TestServeCounterNamesDocumented enforces that the names
// and the docs never drift apart.
var counterNames = [numCounters]string{
	"serve_requests_total",
	"serve_cache_hits_total",
	"serve_identity_hits_total",
	"serve_coalesced_total",
	"serve_compiles_total",
	"serve_shed_total",
	"serve_panics_total",
	"serve_deadline_expired_total",
	"serve_canceled_total",
	"serve_malformed_total",
	"serve_failed_total",
}

// counters are the server's event counts, updated with atomics on the hot
// path and snapshotted for /stats and the drain flush.
type counters [numCounters]atomic.Int64

func (c *counters) snapshot() map[string]int64 {
	m := make(map[string]int64, numCounters)
	for i, name := range counterNames {
		m[name] = c[i].Load()
	}
	return m
}

// flight is one in-flight compilation: the leader enqueues the work, every
// duplicate request (follower) waits on done without occupying a queue slot
// or pool worker. Waiters are refcounted; when the last one disconnects the
// compute context is canceled, so abandoned work stops at the next pass or
// warp-block boundary — and because errors are never cached, a duplicate
// arriving later simply recompiles.
type flight struct {
	key string
	// idents are the request identities of the leader and of every
	// follower that joined (a follower may spell the same kernel
	// differently); a successful finish aliases them to the cache entry.
	idents   []identity
	done     chan struct{}
	res      *Response
	err      *Error
	waiters  int
	finished bool
	cancel   context.CancelFunc
	// exec carries the pool execution's phase timings (admission wait,
	// compile, simulate) and records; written by the worker before done
	// closes, so every waiter can attribute the compute that produced its
	// result and a traced leader can render it.
	exec execRecord
}

// job is one queued pool execution.
type job struct {
	fl       *flight
	sp       *spec
	ctx      context.Context
	enqueued time.Time // admission wait = pickup − enqueued
}

// Server is the daemon core. Create with New, expose via Handler, shut
// down with Drain.
type Server struct {
	opts Options

	baseCtx    context.Context // canceled to abort every in-flight execution
	cancelBase context.CancelFunc

	queue chan *job

	mu      sync.Mutex
	flights map[string]*flight
	cache   *lruCache

	draining atomic.Bool
	inflight sync.WaitGroup // queued-or-running jobs
	workers  sync.WaitGroup

	c counters

	// Observability: the metrics registry, the request-ID sequence and
	// epoch prefix, the sampled-trace ring, and the access-log
	// serialization lock.
	tel      *serveTelemetry
	reqSeq   atomic.Int64
	idEpoch  string
	traceMu  sync.Mutex
	traces   []storedTrace
	accessMu sync.Mutex
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	o := opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       o,
		baseCtx:    ctx,
		cancelBase: cancel,
		queue:      make(chan *job, o.QueueDepth),
		flights:    make(map[string]*flight),
		cache:      newLRU(o.CacheEntries),
		idEpoch:    fmt.Sprintf("%06x", time.Now().UnixNano()&0xffffff),
	}
	s.tel = newServeTelemetry(s)
	s.workers.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go s.worker()
	}
	s.logf("serve: %d workers, queue %d, cache %d", o.Workers, o.QueueDepth, o.CacheEntries)
	return s
}

// Handler returns the HTTP mux: POST /compile (append ?trace=1 for a
// request-scoped trace in the response), GET /stats (JSON, including
// per-phase quantiles), GET /metrics (Prometheus text exposition), GET
// /trace (most recent sampled trace, or ?id=<request_id>), and the
// probes — GET /healthz (liveness: 200 while the process runs, drain
// included) and GET /readyz (readiness: flips to 503 during drain).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// Drain shuts the server down gracefully: stop admitting work (new
// requests get 503 + Retry-After), let in-flight executions finish until
// ctx expires, then cancel the stragglers and wait for them to unwind.
// The final counter snapshot is flushed to Log and returned.
func (s *Server) Drain(ctx context.Context) map[string]int64 {
	// Set under mu so no leader can inflight.Add after draining is
	// observed false: admission and drain serialize on the same lock.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelBase() // in-flight work stops at its next boundary
		// Workers are exiting now; consume any jobs stranded in the
		// queue ourselves so their waiters (and the inflight count)
		// resolve instead of deadlocking the drain.
		for drained := false; !drained; {
			select {
			case <-done:
				drained = true
			case j := <-s.queue:
				s.strand(j)
			}
		}
	}
	s.cancelBase()
	s.workers.Wait()
	snap := s.c.snapshot()
	if s.opts.Log != nil {
		line, _ := json.Marshal(snap)
		fmt.Fprintf(s.opts.Log, "serve: drained, final stats %s\n", line)
	}
	return snap
}

// handleHealthz is the liveness probe: 200 for as long as the process
// serves HTTP, drain included — killing a pod mid-drain would lose the
// very work Drain exists to finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, 200, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: it flips to 503 the moment Drain
// begins, so load balancers stop routing new work while /metrics and
// in-flight responses keep flowing.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, &Error{Status: 503, Code: "draining", Msg: "server is draining"})
		return
	}
	writeJSON(w, 200, map[string]string{"status": "ready"})
}

// Stats is the body of GET /stats: the counters, the structural levels,
// the gauges and every latency histogram's summary.
type Stats struct {
	Counters     map[string]int64 `json:"counters"`
	QueueDepth   int              `json:"queue_depth"`
	QueueCap     int              `json:"queue_cap"`
	Workers      int              `json:"workers"`
	Inflight     int              `json:"inflight"`
	CacheEntries int              `json:"cache_entries"`
	Draining     bool             `json:"draining"`

	Gauges  map[string]int64   `json:"gauges"`
	Phases  map[string]Latency `json:"phases"` // keyed by PhaseNames
	Request Latency            `json:"request"`
}

// Latency is one histogram's summary in milliseconds (recorded values are
// nanoseconds): the quantiles telemetry.HistSnapshot extracts, and its
// non-empty buckets as a cumulative list.
type Latency struct {
	Count   int64           `json:"count"`
	MeanMs  float64         `json:"mean_ms"`
	P50Ms   float64         `json:"p50_ms"`
	P95Ms   float64         `json:"p95_ms"`
	P99Ms   float64         `json:"p99_ms"`
	MaxMs   float64         `json:"max_ms"`
	Buckets []LatencyBucket `json:"buckets"`
}

// LatencyBucket is one non-empty bucket: Count observations were at most
// LeMs, the bucket's telemetry.UpperBound (the le bound /metrics writes).
type LatencyBucket struct {
	LeMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

func newLatency(snap *telemetry.HistSnapshot) Latency {
	l := Latency{
		Count:   snap.Count,
		MeanMs:  snap.Mean() / 1e6,
		P50Ms:   float64(snap.Quantile(0.50)) / 1e6,
		P95Ms:   float64(snap.Quantile(0.95)) / 1e6,
		P99Ms:   float64(snap.Quantile(0.99)) / 1e6,
		MaxMs:   float64(snap.Max) / 1e6,
		Buckets: make([]LatencyBucket, len(snap.Buckets)),
	}
	var cum int64
	for i, b := range snap.Buckets {
		cum += b.Count
		l.Buckets[i] = LatencyBucket{LeMs: float64(telemetry.UpperBound(b.Index)) / 1e6, Count: cum}
	}
	return l
}

// Within counts the observations in buckets whose bound is at most ms. The
// buckets' bounds are fixed, so the count only grows as a histogram
// records, and the difference of two polls is exactly what the window
// between them added.
func (l Latency) Within(ms float64) int64 {
	var n int64
	for _, b := range l.Buckets {
		if b.LeMs > ms {
			break
		}
		n = b.Count
	}
	return n
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	flights := len(s.flights)
	cached := s.cache.len()
	s.mu.Unlock()
	stats := Stats{
		Counters:     s.c.snapshot(),
		QueueDepth:   len(s.queue),
		QueueCap:     cap(s.queue),
		Workers:      s.opts.Workers,
		Inflight:     flights,
		CacheEntries: cached,
		Draining:     s.draining.Load(),
		Gauges: map[string]int64{
			"serve_inflight_requests":   s.tel.inflightRequests.Value(),
			"serve_inflight_executions": s.tel.inflightExecutions.Value(),
		},
		Phases:  make(map[string]Latency, len(s.tel.phases)),
		Request: newLatency(s.tel.request.Snapshot()),
	}
	for name, h := range s.tel.phases {
		stats.Phases[name] = newLatency(h.Snapshot())
	}
	writeJSON(w, 200, stats)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.c[ctrRequests].Add(1)
	st := s.newReqState(r)
	defer st.release()
	s.tel.inflightRequests.Inc()
	defer s.tel.inflightRequests.Dec()
	if r.Method != http.MethodPost {
		st.fail(w, &Error{Status: 405, Code: "bad-request", Msg: "POST only"})
		return
	}
	if s.draining.Load() {
		st.fail(w, &Error{Status: 503, Code: "draining", Msg: "server is draining"})
		return
	}

	// Frontend phase: body decode, then either the identity hash alone (a
	// repeat submission) or the kernel frontend and fingerprinting.
	tFrontend := time.Now()
	req := &st.req
	if err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes), req); err != nil {
		st.tm.Frontend = time.Since(tFrontend)
		s.c[ctrMalformed].Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			st.fail(w, &Error{Status: 413, Code: "oversized", Msg: fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)})
			return
		}
		st.fail(w, &Error{Status: 400, Code: "malformed", Msg: err.Error()})
		return
	}
	// A request spelled exactly like one that filled a live cache entry is
	// answered from that entry without building IR. Skipping buildSpec is
	// sound because an alias exists only after the same identity fields
	// passed all of it, and it is a pure function of them. Anything else —
	// a new spelling, an evicted entry, a request that failed before —
	// takes the full path below, where the fingerprint decides.
	ident := requestIdentity(req)
	tLookup := time.Now()
	s.mu.Lock()
	res, ok := s.cache.lookup(ident)
	s.mu.Unlock()
	if ok {
		st.tm.Frontend = tLookup.Sub(tFrontend)
		st.span("frontend", tFrontend, st.tm.Frontend)
		s.c[ctrIdentHits].Add(1)
		st.key, st.app = res.Key, req.App
		st.respondCached(w, res, tLookup)
		return
	}

	sp, rerr := buildSpec(req)
	st.tm.Frontend = time.Since(tFrontend)
	st.span("frontend", tFrontend, st.tm.Frontend)
	if rerr != nil {
		s.c[ctrMalformed].Add(1)
		st.fail(w, rerr)
		return
	}
	st.key, st.app = sp.key, sp.app

	// Resolve phase — cache and singleflight decisions are one critical
	// section: either the key is cached, or there is a flight to join, or
	// this request becomes the leader of a new one. A leader's resolve
	// phase ends at enqueue (its wait is the admission phase); a
	// follower's runs until the leader's result arrives.
	tResolve := time.Now()
	var enqueued time.Time // a leader's admission wait starts here
	s.mu.Lock()
	if res, ok := s.cache.get(sp.key); ok {
		s.cache.alias(sp.key, ident) // a new spelling of a cached key
		s.mu.Unlock()
		st.respondCached(w, res, tResolve)
		return
	}
	fl, joined := s.flights[sp.key]
	if joined {
		fl.waiters++
		if len(fl.idents) < maxAliases && !slices.Contains(fl.idents, ident) {
			fl.idents = append(fl.idents, ident)
		}
	} else {
		// Re-check draining inside the admission critical section: a
		// request that raced past the fast-path check must not start a
		// flight (and bump inflight) after Drain began waiting.
		if s.draining.Load() {
			s.mu.Unlock()
			st.fail(w, &Error{Status: 503, Code: "draining", Msg: "server is draining"})
			return
		}
		fl = &flight{key: sp.key, idents: []identity{ident}, done: make(chan struct{}), waiters: 1}
		s.flights[sp.key] = fl
		s.inflight.Add(1)
	}
	s.mu.Unlock()

	if !joined {
		deadline := s.opts.DefaultDeadline
		if req.DeadlineMs > 0 {
			deadline = time.Duration(req.DeadlineMs) * time.Millisecond
			if deadline > s.opts.MaxDeadline {
				deadline = s.opts.MaxDeadline
			}
		}
		ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
		fl.cancel = cancel
		enqueued = time.Now()
		select {
		case s.queue <- &job{fl: fl, sp: sp, ctx: ctx, enqueued: enqueued}:
		default:
			// Queue full: shed. The flight fails for every waiter that
			// already joined; Retry-After plus the client's jittered
			// backoff spreads the retry wave.
			s.inflight.Done()
			s.c[ctrShed].Add(1)
			s.finish(fl, nil, &Error{Status: 429, Code: "shed", Msg: "admission queue full"})
		}
		st.tm.Resolve = time.Since(tResolve)
		st.span("resolve", tResolve, st.tm.Resolve)
	} else {
		s.c[ctrCoalesced].Add(1)
	}

	select {
	case <-fl.done:
	case <-r.Context().Done():
		// Client gone: leave the flight. The last waiter out cancels the
		// compute so abandoned work stops promptly.
		s.dropWaiter(fl)
		st.disconnected()
		return
	}
	if joined {
		st.tm.Resolve = time.Since(tResolve)
		st.span("resolve", tResolve, st.tm.Resolve)
	} else if st.tr != nil && fl.exec.Admission > 0 {
		// The leader's trace shows the execution it caused, rendered from
		// what the worker recorded; a flight shed at admission never ran.
		st.span("admission", enqueued, fl.exec.Admission)
		if fl.exec.run != nil {
			fl.exec.run.Trace(st.tr, 0, sp.job.Device)
		}
	}
	st.exec = &fl.exec.phaseTimings
	if fl.err != nil {
		// Copy the shared flight error: each waiter's response body is
		// stamped with its own request ID.
		e := *fl.err
		st.fail(w, &e)
		return
	}
	st.respond(w, fl.res, false, joined)
}

// dropWaiter unregisters a disconnected waiter; when the last one leaves an
// unfinished flight its compute context is canceled and its key is retired
// under the same lock, so a live duplicate arriving before the worker
// notices the cancellation leads a fresh flight instead of joining the
// dying one and being answered "canceled".
func (s *Server) dropWaiter(fl *flight) {
	s.mu.Lock()
	fl.waiters--
	abandon := fl.waiters == 0 && !fl.finished
	if abandon {
		s.retire(fl)
	}
	s.mu.Unlock()
	if abandon && fl.cancel != nil {
		fl.cancel()
	}
}

// retire removes fl's key from the flight table unless a fresh flight has
// taken the key over since fl was abandoned. The caller holds s.mu.
func (s *Server) retire(fl *flight) {
	if s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
}

// finish completes a flight: record the outcome, cache successes, wake
// every waiter, and retire the key so later duplicates start fresh.
func (s *Server) finish(fl *flight, res *Response, rerr *Error) {
	s.mu.Lock()
	fl.res, fl.err = res, rerr
	fl.finished = true
	s.retire(fl)
	if rerr == nil && res != nil {
		s.cache.put(fl.key, res, fl.idents...)
	}
	s.mu.Unlock()
	close(fl.done)
	if fl.cancel != nil {
		fl.cancel() // release the deadline timer
	}
}

// strand fails j, a queued job no worker will run, as canceled: counted,
// its flight finished for every waiter, and its inflight slot returned.
func (s *Server) strand(j *job) {
	s.c[ctrCanceled].Add(1)
	s.finish(j.fl, nil, classify(context.Canceled, "exec-failed"))
	s.inflight.Done()
}

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			// Fail any jobs still queued so their waiters and the
			// inflight count resolve before this worker exits.
			for {
				select {
				case j := <-s.queue:
					s.strand(j)
				default:
					return
				}
			}
		case j := <-s.queue:
			j.fl.exec.Admission = time.Since(j.enqueued)
			s.tel.inflightExecutions.Inc()
			res, rerr := s.execute(j)
			s.tel.inflightExecutions.Dec()
			s.tel.phase("admission", j.fl.exec.Admission)
			s.tel.phase("compile", j.fl.exec.Compile)
			s.tel.phase("simulate", j.fl.exec.Simulate)
			switch {
			case rerr == nil:
			case rerr.Code == "deadline":
				s.c[ctrDeadline].Add(1)
			case rerr.Code == "canceled":
				s.c[ctrCanceled].Add(1)
			case rerr.Code == "panic":
				s.c[ctrPanics].Add(1)
			default:
				s.c[ctrFailed].Add(1)
			}
			if res != nil {
				// Stamp the execution's timings onto the cached response so
				// later cache hits can attribute the compute that produced
				// their result.
				res.execTM = j.fl.exec.phaseTimings
			}
			s.finish(j.fl, res, rerr)
			s.inflight.Done()
		}
	}
}

// execute runs one job with per-request panic isolation: a panicking
// compilation (a poisoned kernel, an injected chaos fault escaping an
// uncontained pipeline) is converted into a structured 500 and the worker
// keeps serving. This is the request-level backstop behind the pass-level
// harden.Guard containment that Contain=true requests opt into.
func (s *Server) execute(j *job) (res *Response, rerr *Error) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("serve: request %s panicked: %v\n%s", j.fl.key[:12], p, debug.Stack())
			res, rerr = nil, &Error{Status: 500, Code: "panic", Msg: fmt.Sprintf("compilation panicked: %v", p)}
		}
	}()
	if err := j.ctx.Err(); err != nil {
		return nil, classify(err, "exec-failed")
	}
	if s.opts.OnCompile != nil {
		s.opts.OnCompile(j.sp.key)
	}
	s.c[ctrCompiles].Add(1)
	res, rerr = runSpec(j.ctx, j.sp, &j.fl.exec)
	if rerr == nil {
		// Encoded here, once, so every waiter and every later hit writes
		// these bytes, and a response that cannot be encoded fails the
		// flight with a structured body instead of reaching anyone as 200.
		if err := res.encode(); err != nil {
			return nil, &Error{Status: 500, Code: "encode", Msg: fmt.Sprintf("encoding the response: %v", err)}
		}
	}
	return res, rerr
}

func (s *Server) logf(format string, a ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, format+"\n", a...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the structured error body; 429 and 503 carry a
// one-second Retry-After hint so well-behaved clients back off instead of
// hammering.
func writeError(w http.ResponseWriter, e *Error) {
	if e.Status == 429 || e.Status == 503 {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, e.Status, e)
}
