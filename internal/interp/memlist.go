package interp

import (
	"math/bits"

	"uu/internal/freelist"
)

// The memory free list recycles device-memory buffers between simulator
// runs whose image provably does not outlive the run (bench.Execute, a serve
// request, gpusim's private per-worker copies). A buffer is allocated at a
// class, a power of two from minFreeMemoryBytes to maxFreeMemoryBytes, and
// filed on its class's list, so it is only ever reused at that class: in a
// serial run each class is built once however the requests are ordered (see
// package freelist for why not a sync.Pool). A request above the largest
// class is allocated and dropped: the suite's images are at most 2.1 MB,
// only a uud request can ask for more, and freelist.Bound buffers of each
// class bound the lists at 128 MiB.
const (
	minFreeMemoryBytes = 4 << 10
	maxFreeMemoryBytes = 4 << 20
)

// freeMemories[i] holds buffers of capacity minFreeMemoryBytes<<i, the
// last being maxFreeMemoryBytes. Their price: with their Put discarded the
// benchmark's simulate workload allocates 126 times as much, serve-cold 3.1
// times and sweep 97 % more (EXPERIMENTS.md "What each free list buys").
var freeMemories [11]freelist.List[*Memory]

// memoryClass returns the capacity a memory of size bytes is allocated at
// and the list that capacity is filed on, or 0 and nil when it is too large
// to recycle.
func memoryClass(size int64) (int64, *freelist.List[*Memory]) {
	i := 0
	switch {
	case size > maxFreeMemoryBytes:
		return 0, nil
	case size > minFreeMemoryBytes:
		i = bits.Len64(uint64(size-1)) - bits.Len64(minFreeMemoryBytes-1)
	}
	return minFreeMemoryBytes << i, &freeMemories[i]
}

// AcquireMemory returns a memory of size bytes holding a copy of image
// followed by zeros (a nil image gives an all-zero memory). The buffer may
// be a recycled one, but every byte of it is overwritten here, so nothing a
// previous owner stored is ever visible. Hand it back with ReleaseMemory
// once nothing references it or its Data.
func AcquireMemory(size int64, image []byte) *Memory {
	class, l := memoryClass(size)
	if l != nil {
		if m, ok := l.Take(); ok {
			m.Data = m.Data[:size]
			n := copy(m.Data, image)
			clear(m.Data[n:])
			return m
		}
	}
	m := &Memory{Data: make([]byte, size, max(class, size))}
	copy(m.Data, image)
	return m
}

// ReleaseMemory gives m to the free list; the caller must not touch m or
// m.Data afterwards. Only a buffer whose capacity is a class is kept, as
// every buffer AcquireMemory sized is; most memories from NewMemory are
// dropped.
func ReleaseMemory(m *Memory) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	if class, l := memoryClass(int64(cap(m.Data))); class == int64(cap(m.Data)) {
		l.Put(m)
	}
}
