package interp

import (
	"bytes"
	"testing"

	"uu/internal/freelist"
)

// TestAcquireMemoryOverwritesRecycledBuffers: whatever a previous owner
// left in a buffer — past the new length too — an acquired memory is
// exactly image followed by zeros.
func TestAcquireMemoryOverwritesRecycledBuffers(t *testing.T) {
	freeMemories = freelist.New[int, *Memory](maxFreeMemories)
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

// TestFreeMemoriesBounded: the list keeps at most maxFreeMemories buffers
// and never one above the largest class or one it did not size itself.
func TestFreeMemoriesBounded(t *testing.T) {
	freeMemories = freelist.New[int, *Memory](maxFreeMemories)
	ReleaseMemory(nil)
	ReleaseMemory(NewMemory(5000)) // not a class capacity
	big := AcquireMemory(maxFreeMemoryBytes+1, nil)
	if len(big.Data) != maxFreeMemoryBytes+1 {
		t.Fatalf("oversized memory has length %d", len(big.Data))
	}
	ReleaseMemory(big)
	if n := freeMemories.Len(); n != 0 {
		t.Fatalf("list retained %d buffers it should have dropped", n)
	}
	var ms []*Memory
	for i := 0; i < maxFreeMemories+5; i++ {
		ms = append(ms, AcquireMemory(4096, nil))
	}
	for _, m := range ms {
		ReleaseMemory(m)
	}
	if n := freeMemories.Len(); n != maxFreeMemories {
		t.Fatalf("list holds %d buffers, want %d", n, maxFreeMemories)
	}
	freeMemories = freelist.New[int, *Memory](maxFreeMemories)
}
