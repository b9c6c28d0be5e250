package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// processStart anchors setup_s and span start times.
var processStart = time.Now()

// usage is a snapshot of the process's clocks and allocator; the difference
// of two snapshots describes a timed section.
type usage struct {
	at       time.Time
	cpu      time.Duration // getrusage user+sys
	alloc    uint64        // MemStats.TotalAlloc
	gcCycles uint32
	gcPause  time.Duration
	heapSys  uint64
}

func snapshot() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		heapSys:  ms.HeapSys,
	}
}

// section is what a timed section cost.
type section struct {
	wallS, cpuS, allocMB float64
	gcCycles, gcPauseMs  float64
	heapSysMB, setupS    float64
}

// between describes the section from a to b; setupS is process start to a.
func between(a, b usage) section {
	return section{
		setupS:    a.at.Sub(processStart).Seconds(),
		wallS:     b.at.Sub(a.at).Seconds(),
		cpuS:      (b.cpu - a.cpu).Seconds(),
		allocMB:   float64(b.alloc-a.alloc) / 1e6,
		gcCycles:  float64(b.gcCycles - a.gcCycles),
		gcPauseMs: ms(b.gcPause - a.gcPause),
		heapSysMB: float64(b.heapSys) / 1e6,
	}
}

// plus adds the cost of a later section; set-up stays the first one's.
func (s section) plus(t section) section {
	s.wallS += t.wallS
	s.cpuS += t.cpuS
	s.allocMB += t.allocMB
	s.gcCycles += t.gcCycles
	s.gcPauseMs += t.gcPauseMs
	s.heapSysMB = max(s.heapSysMB, t.heapSysMB)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call into a layer, taken from outside with a pair of
// time.Now() around the layer's public function. Spans of one op share Op;
// Parent is the index of the enclosing span (-1 for an op's root span).
// Spans named serve.* are the server's own attribution read from a
// response's phases block, so they carry a duration and their request's
// start, not a start of their own.
type span struct {
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"` // "<layer>.<call>"
	Tag     string `json:"tag"`  // config, policy or request form
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing: untraced runs pass nil.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index, for use as a parent.
func (l *spanLog) add(op, parent int, name, tag string, start time.Time, dur time.Duration) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{op, parent, name, tag, int64(start.Sub(processStart)), int64(dur)})
	return len(l.spans) - 1
}

// absorb appends other's spans, keeping their parent links.
func (l *spanLog) absorb(other *spanLog) {
	base := len(l.spans)
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// durations returns the durations in ms of every span with the given name
// and, when tag is not empty, the given tag.
func (l *spanLog) durations(name, tag string) []float64 {
	return l.durationsWhere(name, func(t string) bool { return tag == "" || t == tag })
}

// durationsWhere is durations with a predicate on the tag.
func (l *spanLog) durationsWhere(name string, match func(tag string) bool) []float64 {
	var out []float64
	for i := range l.spans {
		if s := &l.spans[i]; s.Name == name && match(s.Tag) {
			out = append(out, float64(s.DurNs)/1e6)
		}
	}
	return out
}

// childSeconds sums the spans that have a parent: the time the ops' root
// spans can attribute to a layer.
func (l *spanLog) childSeconds() float64 {
	var ns int64
	for i := range l.spans {
		if l.spans[i].Parent >= 0 {
			ns += l.spans[i].DurNs
		}
	}
	return float64(ns) / 1e9
}

// writeFile writes the spans as a JSON array.
func (l *spanLog) writeFile(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
