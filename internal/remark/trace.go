package remark

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// Trace renders wall-clock spans — pipeline phases, pass invocations,
// codegen, a simulator launch, a request's serve phases — in the Chrome
// trace_event JSON format, loadable in Perfetto or chrome://tracing.
//
// A Trace is a renderer, not a sink: no layer below cmd/ and serve takes
// one. Each layer clocks its intervals once into its own result record
// (pipeline.Stats, bench.RunRecord, serve's phase timings) and the caller
// at the edge turns those records into spans afterwards, from one
// goroutine; a Trace is not safe for concurrent use.
//
// Unlike remarks, trace events carry real timestamps: a trace answers
// "where did the wall clock go", not "what did the compiler decide", so it
// is inherently run-specific and exempt from the byte-identical
// determinism contract remarks obey.
type Trace struct {
	t0     time.Time
	events []traceEvent
}

// traceEvent is one Chrome trace_event record; Ph "X" is a complete span
// (ts + dur), the only kind rendered.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTrace returns an empty trace whose clock starts now: create it before
// the work whose records it will render, so timestamps come out positive.
func NewTrace() *Trace {
	return &Trace{t0: time.Now()}
}

// Complete records a finished span: it started at start, lasted dur, and
// belongs to lane tid. args may be nil. A nil *Trace records nothing.
func (t *Trace) Complete(tid int, name, cat string, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(start.Sub(t.t0)) / float64(time.Microsecond),
		Dur: float64(dur) / float64(time.Microsecond),
		PID: 1, TID: tid, Args: args,
	})
}

// WriteJSON writes the trace in the Chrome trace_event JSON object format
// ({"traceEvents": [...], "displayTimeUnit": "ms"}), which Perfetto and
// chrome://tracing load directly. A nil or empty trace writes a loadable
// document with no events.
func (t *Trace) WriteJSON(w io.Writer) error {
	evs := []traceEvent{}
	if t != nil && t.events != nil {
		evs = t.events
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{evs, "ms"}
	return json.NewEncoder(w).Encode(doc)
}

// WriteFile writes the trace (WriteJSON) to a new file at path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
