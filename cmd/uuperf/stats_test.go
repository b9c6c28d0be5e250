package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so the picker must sort
	}
	return s
}

func TestPickPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{178, 0.50, 89},  // sweep: 178 gaps between 179 lines
		{178, 0.90, 161}, // 17 beyond
		{178, 0.95, 0},   // 8 beyond
		{384, 0.90, 346},
		{384, 0.99, 0}, // 3 beyond
		{40000, 0.99, 39600},
		{21, 0.50, 11}, // 10 on either side
		{20, 0.50, 0},  // 9 below
		{0, 0.50, 0},
	} {
		got, err := pickPercentile(ramp(c.n), c.p)
		if (err != nil) != (c.want == 0) || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p*100, c.n, got, err, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{2, 8}, 4},
		{[]float64{1, 1, 1}, 1},
		{[]float64{0.5, 2}, 1},
		{nil, 0},
	} {
		if got := geomean(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, [3]float64{2, 8, 32}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// One slow stretch on either side does not move the overhead ratio.
func TestOverheadRatioIsTheMedianPair(t *testing.T) {
	traced, untraced := &outcome{}, &outcome{}
	for _, w := range [][2]float64{{1.02, 1}, {2.04, 2}, {1.5, 1}, {1.02, 1.4}, {3.06, 3}} {
		traced.addSection(section{wallS: w[0]})
		untraced.addSection(section{wallS: w[1]})
	}
	if got := overheadRatio(traced, untraced); math.Abs(got-1.02) > 1e-12 {
		t.Errorf("overhead ratio %v, want 1.02", got)
	}
	if traced.wallS != 8.64 {
		t.Errorf("sections add up to %v s", traced.wallS)
	}
}
