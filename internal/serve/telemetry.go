package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"uu/internal/remark"
	"uu/internal/telemetry"
)

// PhaseNames lists the per-request phases in pipeline order. Each is a
// label value of the serve_phase_seconds histogram family and a field of
// the response's "phases" object; all are documented in docs/METRICS.md
// and docs/OBSERVABILITY.md (TestServeCounterNamesDocumented enforces
// the METRICS.md rows).
//
//   - frontend:  request decode + kernel frontend (benchmark lookup,
//     MiniCU compile, IR parse) + fingerprinting; on an identity hit,
//     decode + the identity hash only, so the histogram is bimodal
//   - resolve:   cache lookup and singleflight resolution — for a
//     coalesced follower this includes the wait on the leader's result
//   - admission: a leader's queue wait from enqueue to worker pickup
//   - compile:   kernel copy + pipeline passes + codegen (pool execution
//     only; bench.RunRecord.CompileWall)
//   - simulate:  gpusim execution (pool execution only;
//     bench.RunRecord.SimulateWall)
//   - encode:    writing the response: for a 200, splicing the request's
//     fields around the execution's encoded bytes (reqState.respond)
var PhaseNames = []string{"frontend", "resolve", "admission", "compile", "simulate", "encode"}

// histogramNames lists every latency histogram family /metrics exposes,
// in render order; gaugeNames the gauge families. Like counterNames,
// both are linted against docs/METRICS.md.
var histogramNames = []string{
	"serve_request_seconds",
	"serve_phase_seconds",
}

var gaugeNames = []string{
	"serve_queue_depth",
	"serve_queue_capacity",
	"serve_workers",
	"serve_inflight_requests",
	"serve_inflight_executions",
	"serve_cache_entries",
	"serve_draining",
}

// phaseTimings accumulates one request's per-phase wall clock. Frontend
// and resolve belong to the handler; admission, compile, and simulate to
// the pool execution (they live on the flight so every waiter can report
// the compute that produced its result); encode is measured at the write
// site.
type phaseTimings struct {
	Frontend  time.Duration
	Resolve   time.Duration
	Admission time.Duration
	Compile   time.Duration
	Simulate  time.Duration
}

// serveTelemetry owns the server's metrics registry and the handles the
// hot path records into; recording allocates nothing
// (TestTelemetryRecordingZeroAlloc).
type serveTelemetry struct {
	reg     *telemetry.Registry
	request *telemetry.Histogram
	phases  map[string]*telemetry.Histogram

	inflightRequests   *telemetry.Gauge
	inflightExecutions *telemetry.Gauge
}

// newServeTelemetry builds the registry: the pre-existing atomic event
// counters are bridged with CounterFunc, structural levels (queue depth,
// cache size, drain state) with GaugeFunc, and the latency histograms
// are owned here.
func newServeTelemetry(s *Server) *serveTelemetry {
	t := &serveTelemetry{
		reg:    telemetry.NewRegistry(),
		phases: make(map[string]*telemetry.Histogram, len(PhaseNames)),
	}
	for i, name := range counterNames {
		t.reg.CounterFunc(name, "See docs/METRICS.md, compile-service counters.", s.c[i].Load)
	}

	t.reg.GaugeFunc("serve_queue_depth", "Jobs waiting in the admission queue.",
		func() int64 { return int64(len(s.queue)) })
	t.reg.GaugeFunc("serve_queue_capacity", "Admission queue capacity.",
		func() int64 { return int64(cap(s.queue)) })
	t.reg.GaugeFunc("serve_workers", "Compile/simulate pool size.",
		func() int64 { return int64(s.opts.Workers) })
	t.inflightRequests = t.reg.Gauge("serve_inflight_requests", "HTTP compile requests currently being handled.")
	t.inflightExecutions = t.reg.Gauge("serve_inflight_executions", "Pool executions currently running.")
	t.reg.GaugeFunc("serve_cache_entries", "Entries in the result cache.",
		func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(s.cache.len())
		})
	t.reg.GaugeFunc("serve_draining", "1 once Drain has begun, else 0.",
		func() int64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	t.request = t.reg.DurationHistogram("serve_request_seconds",
		"End-to-end POST /compile latency, all outcomes.")
	for _, name := range PhaseNames {
		t.phases[name] = t.reg.DurationHistogram("serve_phase_seconds",
			"Per-phase request latency; see docs/OBSERVABILITY.md for phase semantics.", "phase", name)
	}
	return t
}

// phase records one per-phase duration. Zero durations mean the phase
// never ran and are not recorded, so each phase histogram describes only
// the requests that entered that phase.
func (t *serveTelemetry) phase(name string, d time.Duration) {
	if d > 0 {
		t.phases[name].ObserveDuration(d)
	}
}

// reqState is the request-scoped context: the decoded body, the request ID
// every response body, access-log line, and trace event carries, the
// handler-side phase timings, and — for sampled or ?trace=1 requests —
// the request's own wall-clock trace. States are recycled (release).
type reqState struct {
	srv   *Server
	req   Request
	id    string
	start time.Time
	tm    phaseTimings

	tr         *remark.Trace // non-nil only when this request is traced
	forceTrace bool          // ?trace=1: return the trace in the response body

	key       string
	app       string
	cached    bool
	coalesced bool
	exec      *phaseTimings // the pool execution's timings, when one produced this result
}

var reqStates = sync.Pool{New: func() any { return new(reqState) }}

// newReqState takes a zeroed state, mints the request ID and decides
// tracing: every Options.TraceSample-th request is traced, and ?trace=1
// forces it.
func (s *Server) newReqState(r *http.Request) *reqState {
	seq := s.reqSeq.Add(1)
	st := reqStates.Get().(*reqState)
	st.srv = s
	st.id = requestID(s.idEpoch, seq)
	st.start = time.Now()
	st.forceTrace = r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1"
	if st.forceTrace || (s.opts.TraceSample > 0 && (seq-1)%int64(s.opts.TraceSample) == 0) {
		st.tr = remark.NewTrace()
	}
	return st
}

// release zeroes st and files it for a later request. The handler calls it
// once the request is finished: nothing else keeps st or its Request.
func (st *reqState) release() {
	*st = reqState{}
	reqStates.Put(st)
}

// requestID renders "r-<epoch>-<seq>", seq zero-padded to six digits.
func requestID(epoch string, seq int64) string {
	var buf [48]byte
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], seq, 10)
	b := append(buf[:0], "r-"...)
	b = append(b, epoch...)
	b = append(b, '-')
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// span records a completed phase span on the request's trace, if any.
func (st *reqState) span(name string, start time.Time, dur time.Duration) {
	if st.tr == nil {
		return
	}
	st.tr.Complete(0, "phase:"+name, "serve", start, dur, nil)
}

// phasesMs renders the server-attributed phase timings for the response
// body: handler phases from this request, compute phases from the
// execution that produced the result (the leader's own, for a coalesced
// or cached response). Total is the server-side wall clock up to — but
// not including — response encoding, which is only observable in
// /metrics (serve_phase_seconds{phase="encode"}).
func (st *reqState) phasesMs() Phases {
	p := Phases{
		FrontendMs: ms(st.tm.Frontend),
		ResolveMs:  ms(st.tm.Resolve),
		TotalMs:    ms(time.Since(st.start)),
	}
	if st.exec != nil {
		p.AdmissionMs = ms(st.exec.Admission)
		p.CompileMs = ms(st.exec.Compile)
		p.SimulateMs = ms(st.exec.Simulate)
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// respond writes every 200: res's head, this request's ID and cache flags,
// res's body, this request's phases and, under ?trace=1, its trace — one
// pooled buffer, one Write — then finishes instrumentation. The bytes are
// what json.Marshal writes for res with those fields set, plus a newline.
func (st *reqState) respond(w http.ResponseWriter, res *Response, cached, coalesced bool) {
	st.cached, st.coalesced = cached, coalesced
	phases := st.phasesMs()
	start := time.Now()
	bp := takeBuf()
	b := append(*bp, res.head...)
	b = append(b, `"request_id":"`...)
	b = append(b, st.id...)
	b = append(b, `","cached":`...)
	b = strconv.AppendBool(b, cached)
	b = append(b, ',')
	if coalesced {
		b = append(b, `"coalesced":true,`...)
	}
	b = append(b, res.body...)
	b = appendPhases(b, phases)
	if st.tr != nil && st.forceTrace {
		var buf bytes.Buffer
		if err := st.tr.WriteJSON(&buf); err == nil && buf.Len() > 0 {
			// The returned trace necessarily misses its own encode span;
			// the stored copy (GET /trace) includes it.
			if tj, err := json.Marshal(buf.String()); err == nil {
				b = append(b, `,"trace_json":`...)
				b = append(b, tj...)
			}
		}
	}
	b = append(b, "}\n"...)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(200)
	_, _ = w.Write(b)
	fileBuf(bp, b)
	st.finish(200, "", time.Since(start))
}

// respondCached answers from a cache entry; resolveStart is when this
// request began looking for it.
func (st *reqState) respondCached(w http.ResponseWriter, res *Response, resolveStart time.Time) {
	st.srv.c[ctrCacheHits].Add(1)
	st.tm.Resolve = time.Since(resolveStart)
	st.span("resolve", resolveStart, st.tm.Resolve)
	st.exec = &res.execTM // attribute the compute that filled the cache
	st.respond(w, res, true, false)
}

// fail writes a structured error body — every error carries the request
// ID so failures join to access-log lines and traces — then finishes
// instrumentation.
func (st *reqState) fail(w http.ResponseWriter, e *Error) {
	e.RequestID = st.id
	start := time.Now()
	writeError(w, e)
	st.finish(e.Status, e.Code, time.Since(start))
}

// disconnected finishes a request whose client went away before a
// response could be written (status 499, the de facto convention).
func (st *reqState) disconnected() {
	st.finish(499, "client-gone", 0)
}

// finish closes out the request: histograms, the trace's terminal events
// and storage, and the structured access-log line.
func (st *reqState) finish(status int, code string, encode time.Duration) {
	s := st.srv
	total := time.Since(st.start)
	s.tel.phase("frontend", st.tm.Frontend)
	s.tel.phase("resolve", st.tm.Resolve)
	s.tel.phase("encode", encode)
	s.tel.request.ObserveDuration(total)

	if st.tr != nil {
		if encode > 0 {
			st.tr.Complete(0, "phase:encode", "serve", st.start.Add(total-encode), encode, nil)
		}
		st.tr.Complete(0, "request", "serve", st.start, total, map[string]any{
			"request_id": st.id, "key": st.key, "status": status,
		})
		var buf bytes.Buffer
		if err := st.tr.WriteJSON(&buf); err == nil {
			s.storeTrace(st.id, buf.Bytes())
		}
	}
	s.accessLog(st, status, code, total, encode)
}

// accessLogLine is one structured JSON access-log record; request_id is
// the join key against error bodies, traces, and remark streams.
type accessLogLine struct {
	TS        string  `json:"ts"`
	RequestID string  `json:"request_id"`
	Status    int     `json:"status"`
	Code      string  `json:"code,omitempty"`
	Key       string  `json:"key,omitempty"`
	App       string  `json:"app,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	Traced    bool    `json:"traced,omitempty"`
	TotalMs   float64 `json:"total_ms"`
	Phases    *Phases `json:"phases,omitempty"`
}

func (s *Server) accessLog(st *reqState, status int, code string, total, encode time.Duration) {
	if s.opts.AccessLog == nil {
		return
	}
	line := accessLogLine{
		TS:        st.start.UTC().Format(time.RFC3339Nano),
		RequestID: st.id,
		Status:    status,
		Code:      code,
		Key:       st.key,
		App:       st.app,
		Cached:    st.cached,
		Coalesced: st.coalesced,
		Traced:    st.tr != nil,
		TotalMs:   ms(total),
	}
	p := st.phasesMs()
	p.EncodeMs = ms(encode)
	p.TotalMs = ms(total)
	line.Phases = &p
	b, err := json.Marshal(&line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.accessMu.Lock()
	_, _ = s.opts.AccessLog.Write(b)
	s.accessMu.Unlock()
}

// traceRing holds the most recent request traces for GET /trace.
const traceRingSize = 8

type storedTrace struct {
	id   string
	data []byte
}

func (s *Server) storeTrace(id string, data []byte) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.traces = append(s.traces, storedTrace{id: id, data: append([]byte(nil), data...)})
	if len(s.traces) > traceRingSize {
		s.traces = s.traces[len(s.traces)-traceRingSize:]
	}
}

// handleTrace serves stored request traces: the most recent by default,
// or a specific one with ?id=<request_id>. Traces exist for sampled
// (Options.TraceSample) and ?trace=1 requests only.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	s.traceMu.Lock()
	var found *storedTrace
	for i := len(s.traces) - 1; i >= 0; i-- {
		if id == "" || s.traces[i].id == id {
			found = &s.traces[i]
			break
		}
	}
	s.traceMu.Unlock()
	if found == nil {
		writeError(w, &Error{Status: 404, Code: "no-trace", Msg: "no stored trace (enable -trace-sample or use ?trace=1)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-ID", found.id)
	_, _ = w.Write(found.data)
}

// handleMetrics serves the Prometheus text exposition. Unlike /compile
// it keeps serving during drain, so operators can watch the queue and
// in-flight gauges fall to zero.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.tel.reg.WritePrometheus(w)
}
