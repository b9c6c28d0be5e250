package gpusim

import (
	"math"
	"math/rand"
	"testing"

	"uu/internal/interp"
	"uu/internal/pipeline"
)

// accessReference is access as it was before the shift path: two truncating
// divisions per lane, an unconditional insertion sort, a sweep of the union.
// It is the oracle for the transaction count on every input, including the
// ones that keep the division (negative addresses, odd segment sizes).
func accessReference(addrs []int64, size, segmentBytes int64) int64 {
	sb := segmentBytes
	var segs []segSpan
	for _, a := range addrs {
		segs = append(segs, segSpan{a / sb, (a + size - 1) / sb})
	}
	for i := 1; i < len(segs); i++ {
		s := segs[i]
		j := i - 1
		for j >= 0 && segs[j].first > s.first {
			segs[j+1] = segs[j]
			j--
		}
		segs[j+1] = s
	}
	var count int64
	covered := int64(math.MinInt64)
	for _, s := range segs {
		if s.first > covered {
			count += s.last - s.first + 1
			covered = s.last
		} else if s.last > covered {
			count += s.last - covered
			covered = s.last
		}
	}
	return count
}

// TestAccessMatchesDivisionReference drives access with random warp address
// sets — coalesced, strided, scattered, unsorted, overlapping, negative,
// straddling zero, at the top of the address space — for every access size
// and for power-of-two and other segment sizes, and requires the reference's
// transaction count, byte count and cost exactly.
func TestAccessMatchesDivisionReference(t *testing.T) {
	p := build(t, axpySrc, pipeline.Options{Config: pipeline.Baseline})
	dp, err := decoded(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	gen := []func(lane int) int64{
		func(lane int) int64 { return 4096 + int64(lane)*8 },                  // coalesced
		func(lane int) int64 { return 64 + int64(lane)*int64(rng.Intn(300)) }, // strided, overlapping at stride 0
		func(lane int) int64 { return rng.Int63n(1 << 20) },                   // scattered, unsorted
		func(lane int) int64 { return 1000 - int64(lane)*12 },                 // descending
		func(lane int) int64 { return rng.Int63n(200) - 100 },                 // straddling zero
		func(lane int) int64 { return -rng.Int63n(1 << 30) },                  // negative
		func(lane int) int64 { return math.MaxInt64 - rng.Int63n(64) },        // a+size-1 overflows
		func(lane int) int64 { return int64(rng.Intn(4)) * 32 },               // few distinct segments
	}
	for _, sb := range []int64{32, 1, 2, 128, 4096, 3, 48, 100} {
		for _, warp := range []int{32, 16, 5} {
			cfg := V100()
			cfg.SegmentBytes, cfg.WarpSize = sb, warp
			w := newWarpSim(dp, cfg, interp.NewMemory(64))
			if pow2 := sb&(sb-1) == 0; (w.segShift >= 0) != pow2 {
				t.Fatalf("segmentbytes=%d: segShift=%d", sb, w.segShift)
			}
			for _, size := range []int64{1, 4, 8} {
				for gi, g := range gen {
					for round := 0; round < 50; round++ {
						n := 1 + rng.Intn(warp)
						for lane := 0; lane < n; lane++ {
							w.addrBuf[lane] = g(lane)
						}
						addrs := append([]int64(nil), w.addrBuf[:n]...)
						want := accessReference(addrs, size, sb)
						isLoad := round%2 == 0
						var m Metrics
						cost, got := w.access(n, size, isLoad, &m)
						if got != want {
							t.Fatalf("segmentbytes=%d size=%d generator %d addrs %v: %d transactions, reference %d", sb, size, gi, addrs, got, want)
						}
						wantM := Metrics{GstTransactions: want, GstBytes: int64(n) * size}
						if isLoad {
							wantM = Metrics{GldTransactions: want, GldBytes: int64(n) * size}
						}
						if m != wantM || cost != float64(want*cfg.MemPerTransaction) {
							t.Fatalf("segmentbytes=%d size=%d generator %d: metrics %+v cost %v, want %+v cost %v", sb, size, gi, m, cost, wantM, float64(want*cfg.MemPerTransaction))
						}
					}
				}
			}
		}
	}
}
