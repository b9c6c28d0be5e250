package interp

import (
	"math/bits"

	"uu/internal/freelist"
)

// The memory free list recycles device-memory buffers between simulator
// runs whose image provably does not outlive the run (bench.Execute, a serve
// request, gpusim's private per-worker copies). Buffers are filed by
// capacity, a power of two from minFreeMemoryBytes to maxFreeMemoryBytes,
// and only ever reused at that capacity (see package freelist for why not
// best fit, and why not a sync.Pool). A request above the largest class is
// allocated and dropped: the suite's images are at most 2.1 MB, only a uud
// request can ask for more, and 16 retained buffers of 4 MiB bound the list
// at 64 MiB.
const (
	maxFreeMemories    = 16
	minFreeMemoryBytes = 4 << 10
	maxFreeMemoryBytes = 4 << 20
)

var freeMemories = freelist.New[int, *Memory](maxFreeMemories)

// memoryClass returns the capacity a memory of size bytes is allocated at,
// or 0 when it is too large to recycle.
func memoryClass(size int64) int {
	switch {
	case size > maxFreeMemoryBytes:
		return 0
	case size <= minFreeMemoryBytes:
		return minFreeMemoryBytes
	}
	return 1 << bits.Len64(uint64(size-1))
}

// AcquireMemory returns a memory of size bytes holding a copy of image
// followed by zeros (a nil image gives an all-zero memory). The buffer may
// be a recycled one, but every byte of it is overwritten here, so nothing a
// previous owner stored is ever visible. Hand it back with ReleaseMemory
// once nothing references it or its Data.
func AcquireMemory(size int64, image []byte) *Memory {
	class := memoryClass(size)
	m, ok := freeMemories.Take(class)
	if !ok {
		m = &Memory{Data: make([]byte, size, max(int64(class), size))}
		copy(m.Data, image)
		return m
	}
	m.Data = m.Data[:size]
	n := copy(m.Data, image)
	clear(m.Data[n:])
	return m
}

// ReleaseMemory gives m to the free list; the caller must not touch m or
// m.Data afterwards. Only buffers AcquireMemory sized are kept (their
// capacity is their class), so a memory from NewMemory is simply dropped.
func ReleaseMemory(m *Memory) {
	if m == nil || cap(m.Data) == 0 || memoryClass(int64(cap(m.Data))) != cap(m.Data) {
		return
	}
	freeMemories.Put(cap(m.Data), m)
}
