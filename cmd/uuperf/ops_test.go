package main

import (
	"reflect"
	"sort"
	"testing"
)

// The op sets are pinned: a change to any of these digests changes what the
// benchmark measures, and every number recorded before it stops comparing.
func TestOpSetsArePinned(t *testing.T) {
	keys, err := serveKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		n      int
		digest string
		wantN  int
		want   string
	}{
		{"sweep", len(sweepCells()), opDigest(sweepCells()), 179, "f2d25dda8c76e9f3"},
		{"simulate", len(simOps()), opDigest(simOps()), 96, "4fcfc504da8fb573"},
		{"serve", len(keys), opDigest(keys), 192, "cd75d0476b100ff7"},
	} {
		if c.n != c.wantN || c.digest != c.want {
			t.Errorf("%s: %d ops, digest %s; want %d, %s", c.name, c.n, c.digest, c.wantN, c.want)
		}
	}
}

func TestSeedOrdersNeverChooses(t *testing.T) {
	const nKeys, total = 192, 4000
	a, again, b := hotSequence(nKeys, total, 1), hotSequence(nKeys, total, 1), hotSequence(nKeys, total, 2)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed gave two different sequences")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("two seeds gave the same order")
	}
	sort.Ints(a)
	sort.Ints(b)
	if !reflect.DeepEqual(a, b) {
		t.Error("two seeds gave different request multisets")
	}
}

func TestZipfCounts(t *testing.T) {
	counts := zipfCounts(192, 40000)
	total := 0
	for r, c := range counts {
		total += c
		if r > 0 && c > counts[r-1] {
			t.Errorf("rank %d is asked for %d times, rank %d only %d", r+1, c, r, counts[r-1])
		}
	}
	if total != 40000 {
		t.Errorf("counts add up to %d, want 40000", total)
	}
	// The working set is skewed but whole: the hottest key well above an
	// even share, the coldest still requested.
	if counts[0] < 10*40000/192 || counts[191] < 10 {
		t.Errorf("hottest key %d requests, coldest %d", counts[0], counts[191])
	}
}
