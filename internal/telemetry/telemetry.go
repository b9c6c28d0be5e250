// Package telemetry is the production-metrics layer of the compile
// service: gauges and log-linear (HDR-style) latency histograms with
// exact-max quantile extraction, and Prometheus text exposition of those
// plus counters and gauges read from their owners at scrape time.
//
// The package is deliberately a leaf: it imports only the standard
// library, so every layer (serve, CLIs) can depend on it.
//
// Recording is bounded and allocation-free: Histogram.Observe is a fixed
// number of atomic operations into a fixed-size bucket array; there is no
// sampling, no locking, and no allocation on the hot path, so the serving
// layer can record every request. A snapshot is a sparse, index-sorted
// bucket list read for quantiles and exposition; nothing merges snapshots.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Gauge is an instantaneous level — queue depth, in-flight requests —
// that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Add moves the level by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket scheme: log-linear, the layout HDR histograms use.
// Values below 2*subCount are recorded exactly (width-1 buckets); above
// that, every octave [2^k, 2^(k+1)) is split into subCount buckets, so
// the relative bucket width — and therefore the worst-case quantile
// error — is bounded by 1/subCount = 2^-subBits ≈ 3.1%.
const (
	subBits  = 5
	subCount = 1 << subBits // 32 sub-buckets per octave
	// maxOctave covers every non-negative int64: the top value 2^63-1 has
	// msb 62, octave 62-subBits.
	maxOctave  = 62 - subBits
	numBuckets = subCount*maxOctave + 2*subCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < 2*subCount {
		return int(u) // exact region
	}
	octave := bits.Len64(u) - 1 - subBits
	top := u >> uint(octave) // in [subCount, 2*subCount)
	return octave*subCount + int(top)
}

// bucketBounds returns the inclusive value range [lo, hi] of a bucket.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < 2*subCount {
		return int64(idx), int64(idx)
	}
	octave := idx/subCount - 1
	top := uint64(idx - octave*subCount)
	lo = int64(top << uint(octave))
	hi = int64((top+1)<<uint(octave)) - 1
	return lo, hi
}

// UpperBound returns the largest value bucket index holds: every value
// recorded there is ≤ it. The exposition's le bounds are these.
func UpperBound(index int) int64 {
	_, hi := bucketBounds(index)
	return hi
}

// Histogram is a fixed-size log-linear latency histogram safe for
// concurrent recording: every field is atomic and Observe performs no
// allocation. Values are non-negative int64s in a caller-chosen unit
// (the serving layer records nanoseconds); negatives clamp to zero.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64 // exact observed maximum; meaningful once a bucket is non-empty
	buckets [numBuckets]atomic.Int64
}

// newHistogram returns an empty histogram.
func newHistogram() *Histogram { return &Histogram{} }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	Index int   // bucket scheme index; UpperBound gives its bound
	Count int64 // observations in this bucket
}

// HistSnapshot is a point-in-time copy of a histogram: a sparse,
// index-sorted bucket list plus the exact count, sum, and maximum, read for
// quantile queries and exposition.
//
// A snapshot taken during concurrent recording is mildly torn (Sum and
// Max may trail the buckets by in-flight observations); Count is always
// the bucket total, so quantile ranks stay internally consistent.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets []Bucket
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Index: i, Count: n})
			s.Count += n
		}
	}
	return s
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound of
// the bucket containing the rank-⌈q·Count⌉ observation, clamped to the
// exact maximum (so Quantile(1) is the true max, and every result is
// within one bucket width — ≤ 2^-5 relative — of the true quantile).
// An empty snapshot returns 0.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			lo, hi := bucketBounds(b.Index)
			if s.Max >= lo && s.Max < hi {
				return s.Max
			}
			return hi
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the recorded values, or 0 when
// empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
