package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile. A
// percentile with fewer is set by a handful of ops and does not repeat: PR
// 11's p95 over 96 samples (4 beyond) moved 11% between two sets of runs.
const minBeyond = 10

// pickPercentile returns the nearest-rank p-th percentile (0 < p < 1) of
// samples, or an error when fewer than minBeyond samples lie on either side
// of it.
func pickPercentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := min(n-rank, rank-1); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	s := sortedCopy(samples)
	return s[rank-1], nil
}

// percentileOrZero is pickPercentile for per-layer rows, where a workload
// that never reaches the layer has no samples and the row reads 0.
func percentileOrZero(samples []float64, p float64) float64 {
	v, err := pickPercentile(samples, p)
	if err != nil {
		return 0
	}
	return v
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean returns the geometric mean of positive ratios.
func geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	logs := 0.0
	for _, r := range ratios {
		logs += math.Log(r)
	}
	return math.Exp(logs / float64(len(ratios)))
}

// quartiles returns what Python's statistics.quantiles(values, n=4) returns
// (the default "exclusive" method), because that is what the driver computes
// spreads from. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4 // after the clamp, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
