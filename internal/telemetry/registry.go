package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Registry is a named collection of metrics renderable in the Prometheus
// text exposition format (version 0.0.4). Metrics register once at
// construction time; recording afterwards is lock-free on the metric
// itself. A family (one name, one HELP/TYPE pair) may carry several
// series distinguished by one constant label — the serving layer's
// per-phase histograms share the family serve_phase_seconds with a
// phase label per series.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help, typ string
	series          []*series
}

// series is one sample stream: exactly one of the value sources is set.
type series struct {
	labels    string // rendered constant label pair, e.g. `phase="compile"`, or ""
	counterFn func() int64
	gauge     *Gauge
	gaugeFn   func() int64
	hist      *Histogram
	scale     float64 // exposition multiplier (1e-9 renders nanoseconds as seconds)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) register(name, help, typ string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as both %s and %s", name, f.typ, typ))
	}
	f.series = append(f.series, s)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for pre-existing atomic counters owned elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(name, help, "counter", &series{counterFn: fn})
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", &series{gauge: g})
	return g
}

// GaugeFunc registers a gauge sampled from fn at scrape time (queue
// depth, cache size — levels another structure already tracks).
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, help, "gauge", &series{gaugeFn: fn})
}

// DurationHistogram registers and returns a histogram that records
// nanoseconds and renders its exposition bucket bounds and sum in
// seconds, the Prometheus convention for latency. labelKV is an
// optional single constant label pair (key, value) distinguishing this
// series within the family.
func (r *Registry) DurationHistogram(name, help string, labelKV ...string) *Histogram {
	h := newHistogram()
	s := &series{hist: h, scale: 1e-9}
	switch len(labelKV) {
	case 0:
	case 2:
		s.labels = labelKV[0] + `="` + labelKV[1] + `"`
	default:
		panic("telemetry: DurationHistogram takes zero or one (key, value) label pair")
	}
	r.register(name, help, "histogram", s)
	return h
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelBlock renders a full label block from the constant labels plus an
// optional extra pair (the histogram "le" bound).
func labelBlock(constLabels, extra string) string {
	switch {
	case constLabels == "" && extra == "":
		return ""
	case constLabels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + constLabels + "}"
	}
	return "{" + constLabels + "," + extra + "}"
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, families sorted by name, series in registration
// order. Histograms emit cumulative _bucket lines at each non-empty
// bucket's upper bound plus +Inf, then _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f.name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, s *series) error {
	switch {
	case s.counterFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labelBlock(s.labels, ""), s.counterFn())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labelBlock(s.labels, ""), s.gauge.Value())
		return err
	case s.gaugeFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labelBlock(s.labels, ""), s.gaugeFn())
		return err
	case s.hist != nil:
		snap := s.hist.Snapshot()
		var cum int64
		for _, b := range snap.Buckets {
			cum += b.Count
			le := formatFloat(float64(UpperBound(b.Index)) * s.scale)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelBlock(s.labels, `le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelBlock(s.labels, `le="+Inf"`), snap.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelBlock(s.labels, ""), formatFloat(float64(snap.Sum)*s.scale)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelBlock(s.labels, ""), snap.Count)
		return err
	}
	return nil
}
