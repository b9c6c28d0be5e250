package interp

import (
	"math/bits"

	"uu/internal/freelist"
	"uu/internal/ir"
)

// The frame free list recycles interpreter frames between runs: an oracle
// is one RunSteps per thread of the launch, and each run used to allocate
// its frame afresh. Frames are filed by capacity, a power of two of Values
// from minFrameValues to maxFrameValues, and only ever reused at that
// capacity (see package freelist for why not best fit, and why not a
// sync.Pool). A function whose frame needs more is allocated and dropped.
// A frame holds only Values and slot bytes, so a filed frame pins no IR;
// 16 frames of the largest class (vals and locals) bound the list at 12 MiB.
const (
	maxFreeFrames  = 16
	minFrameValues = 256
	maxFrameValues = 1 << 15
)

var freeFrames = freelist.New[int, *frame](maxFreeFrames)

// frameClass returns the capacity a frame of n values is allocated at, or 0
// when it is too large to recycle.
func frameClass(n int) int {
	switch {
	case n > maxFrameValues:
		return 0
	case n <= minFrameValues:
		return minFrameValues
	}
	return 1 << bits.Len(uint(n-1))
}

// takeFrame returns the frame for one run of f on args, a recycled one when
// the list holds one of its class. The reset makes the recycling invisible:
// vals is cleared over the run's length (a fresh frame reads zero for a
// value not yet defined, and an alloca reads zero as "not yet executed"),
// the alloca count is zeroed, and locals is dropped to length zero until
// the run's first alloca. Its stale bytes need no clearing: a slot is
// reached only through an alloca that has executed in this run, and
// executing it zeroes the slot.
func takeFrame(f *ir.Function, args []Value) *frame {
	params := f.InstrIDBound()
	n := params + len(args)
	class := frameClass(n)
	fr, ok := freeFrames.Take(class)
	if ok {
		fr.vals = fr.vals[:n]
		clear(fr.vals)
	} else {
		fr = &frame{vals: make([]Value, n, max(class, n))}
	}
	fr.params, fr.allocas, fr.locals = params, 0, fr.locals[:0]
	copy(fr.vals[params:], args)
	return fr
}

// putFrame files fr for a later run; the caller must not touch fr
// afterwards. Only frames takeFrame sized at a class are kept.
func putFrame(fr *frame) {
	if c := cap(fr.vals); frameClass(c) == c {
		freeFrames.Put(c, fr)
	}
}
