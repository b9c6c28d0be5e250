package telemetry

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketScheme pins the log-linear bucket layout: every value lands
// in a bucket that contains it, indices are monotone in the value, and
// the relative bucket width never exceeds 2^-subBits.
func TestBucketScheme(t *testing.T) {
	var vals []int64
	for v := int64(0); v < 4096; v++ {
		vals = append(vals, v)
	}
	for shift := 12; shift < 63; shift++ {
		base := int64(1) << shift
		vals = append(vals, base-1, base, base+1, base+base/3, 2*base-1)
	}
	vals = append(vals, int64(1<<63-1))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Int63())
	}

	prevIdx, prevVal := -1, int64(-1)
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, v := range sorted {
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d landed in bucket %d = [%d, %d]", v, idx, lo, hi)
		}
		if idx < prevIdx {
			t.Fatalf("index not monotone: value %d → bucket %d after value %d → bucket %d", v, idx, prevVal, prevIdx)
		}
		if idx >= numBuckets {
			t.Fatalf("value %d exceeds the bucket array: index %d >= %d", v, idx, numBuckets)
		}
		if width := hi - lo; width > 0 && float64(width) > float64(lo)/float64(subCount) {
			t.Fatalf("bucket %d = [%d, %d] wider than the %g relative bound", idx, lo, hi, 1.0/subCount)
		}
		prevIdx, prevVal = idx, v
	}
}

// TestQuantileExactRegion pins exact quantiles for values in the linear
// region (width-1 buckets): the histogram must reproduce the true order
// statistics, and Quantile(1) the true maximum.
func TestQuantileExactRegion(t *testing.T) {
	h := newHistogram()
	for v := int64(1); v <= 60; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 30}, {0.95, 57}, {0.99, 60}, {1, 60}} {
		if got := s.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if s.Max != 60 || s.Count != 60 || s.Sum != 61*60/2 {
		t.Errorf("snapshot count/sum/max = %d/%d/%d", s.Count, s.Sum, s.Max)
	}
	if newHistogram().Snapshot().Quantile(0.99) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// TestQuantileRelativeError checks the bucket-scheme error bound on a
// wide log-spread population: every reported quantile must be within
// 2^-subBits relative error of the true order statistic, and never
// exceed the observed maximum.
func TestQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newHistogram()
	var exact []int64
	for i := 0; i < 20000; i++ {
		v := int64(1) << uint(rng.Intn(40))
		v += rng.Int63n(v)
		h.Observe(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(q*float64(len(exact)) + 0.9999999)
		if rank < 1 {
			rank = 1
		}
		truth := exact[rank-1]
		got := s.Quantile(q)
		if got < truth {
			t.Errorf("Quantile(%v) = %d below the true order statistic %d", q, got, truth)
		}
		if float64(got-truth) > float64(truth)/subCount+1 {
			t.Errorf("Quantile(%v) = %d exceeds the relative error bound around %d", q, got, truth)
		}
		if got > s.Max {
			t.Errorf("Quantile(%v) = %d exceeds the exact max %d", q, got, s.Max)
		}
	}
	if s.Quantile(1) != exact[len(exact)-1] {
		t.Errorf("Quantile(1) = %d, want exact max %d", s.Quantile(1), exact[len(exact)-1])
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines; run
// under -race in CI. The totals must come out exact: recording is atomic
// per field and counts never tear.
func TestConcurrentObserve(t *testing.T) {
	const goroutines, per = 16, 5000
	h := newHistogram()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// TestPrometheusGolden pins the exposition format byte-for-byte on a
// small deterministic registry — the scrape contract uutop and the CI
// monotonicity check parse.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("demo_requests_total", "Requests received.", func() int64 { return 42 })
	g := reg.Gauge("demo_queue_depth", "Jobs waiting.")
	g.Add(4)
	g.Dec()
	reg.GaugeFunc("demo_cache_entries", "Cached results.", func() int64 { return 7 })
	h := reg.DurationHistogram("demo_phase_seconds", "Phase latency.", "phase", "compile")
	h.ObserveDuration(1 * time.Microsecond)
	h.ObserveDuration(1 * time.Microsecond)
	h.ObserveDuration(2 * time.Millisecond)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP demo_cache_entries Cached results.
# TYPE demo_cache_entries gauge
demo_cache_entries 7
# HELP demo_phase_seconds Phase latency.
# TYPE demo_phase_seconds histogram
demo_phase_seconds_bucket{phase="compile",le="1.007e-06"} 2
demo_phase_seconds_bucket{phase="compile",le="0.002031615"} 3
demo_phase_seconds_bucket{phase="compile",le="+Inf"} 3
demo_phase_seconds_sum{phase="compile"} 0.0020020000000000003
demo_phase_seconds_count{phase="compile"} 3
# HELP demo_queue_depth Jobs waiting.
# TYPE demo_queue_depth gauge
demo_queue_depth 3
# HELP demo_requests_total Requests received.
# TYPE demo_requests_total counter
demo_requests_total 42
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestRecordingZeroAlloc pins that recording into a gauge or a histogram
// allocates nothing.
func TestRecordingZeroAlloc(t *testing.T) {
	g, h := &Gauge{}, newHistogram()
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() {
		g.Add(-1)
		h.Observe(v)
		v += 997
	}); n != 0 {
		t.Errorf("recording allocates %v per op, want 0", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 131)
	}
}
