package interp

import (
	"bytes"
	"testing"

	"uu/internal/freelist"
)

// dropFreeMemories empties every class's list.
func dropFreeMemories() {
	for i := range freeMemories {
		for {
			if _, ok := freeMemories[i].Take(); !ok {
				break
			}
		}
	}
}

// freeMemoryCount reports how many buffers the lists hold in all.
func freeMemoryCount() int {
	n := 0
	for i := range freeMemories {
		n += freeMemories[i].Len()
	}
	return n
}

// TestAcquireMemoryOverwritesRecycledBuffers: whatever a previous owner
// left in a buffer — past the new length too — an acquired memory is
// exactly image followed by zeros.
func TestAcquireMemoryOverwritesRecycledBuffers(t *testing.T) {
	dropFreeMemories()
	dirty := AcquireMemory(5000, nil)
	if cap(dirty.Data) != 8192 {
		t.Fatalf("a 5000-byte memory has capacity %d, want its class, 8192", cap(dirty.Data))
	}
	buf := dirty.Data[:cap(dirty.Data)]
	for i := range buf {
		buf[i] = 0xFF
	}
	backing := &dirty.Data[0]
	ReleaseMemory(dirty)

	image := []byte{1, 2, 3, 4, 5}
	m := AcquireMemory(4100, image)
	if &m.Data[0] != backing {
		t.Fatalf("a released buffer of the same class was not recycled")
	}
	if len(m.Data) != 4100 {
		t.Fatalf("len = %d, want 4100 (bounds checks read it)", len(m.Data))
	}
	if !bytes.Equal(m.Data[:5], image) || !bytes.Equal(m.Data[5:], make([]byte, 4095)) {
		t.Fatalf("recycled memory is not image followed by zeros")
	}
	ReleaseMemory(m)

	z := AcquireMemory(8192, nil)
	if &z.Data[0] != backing {
		t.Fatalf("buffer not recycled at its full capacity")
	}
	if !bytes.Equal(z.Data, make([]byte, 8192)) {
		t.Fatalf("recycled zero memory has stale bytes")
	}
	ReleaseMemory(z)

	// Other classes never see it, in either direction: reuse is by exact
	// class so that what a run allocates does not depend on request order.
	for _, size := range []int64{100, 4096, 8193, 1 << 20} {
		if o := AcquireMemory(size, nil); &o.Data[:1][0] == backing || int64(len(o.Data)) != size {
			t.Fatalf("size %d: got the 8 KiB buffer or a wrong length %d", size, len(o.Data))
		}
	}
}

// TestFreeMemoriesBounded: each class's list keeps at most freelist.Bound
// buffers, and no list keeps one above the largest class or one whose
// capacity is not a class; a NewMemory buffer of a class's capacity is filed
// like any other.
func TestFreeMemoriesBounded(t *testing.T) {
	dropFreeMemories()
	ReleaseMemory(nil)
	ReleaseMemory(NewMemory(5000)) // not a class capacity
	big := AcquireMemory(maxFreeMemoryBytes+1, nil)
	if len(big.Data) != maxFreeMemoryBytes+1 {
		t.Fatalf("oversized memory has length %d", len(big.Data))
	}
	ReleaseMemory(big)
	if n := freeMemoryCount(); n != 0 {
		t.Fatalf("lists retained %d buffers they should have dropped", n)
	}
	ReleaseMemory(NewMemory(maxFreeMemoryBytes))
	if n := freeMemoryCount(); n != 1 {
		t.Fatalf("lists hold %d buffers, want the 4 MiB one", n)
	}
	var ms []*Memory
	for i := 0; i < freelist.Bound+5; i++ {
		ms = append(ms, AcquireMemory(4096, nil))
	}
	for _, m := range ms {
		ReleaseMemory(m)
	}
	if n := freeMemoryCount(); n != freelist.Bound+1 {
		t.Fatalf("lists hold %d buffers, want %d 4 KiB ones and the 4 MiB one", n, freelist.Bound)
	}
	dropFreeMemories()
}
