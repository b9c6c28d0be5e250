package interp

import (
	"math/bits"

	"uu/internal/freelist"
	"uu/internal/ir"
)

// The frame free list recycles interpreter frames between launches: an
// oracle is one RunLaunch, a test's thread one RunCounted, and each used to
// allocate its frame afresh. Frames are filed by capacity, a power of two of
// Values from minFrameValues to maxFrameValues, and only ever reused at
// that capacity (see package freelist for why not best fit, and why not a
// sync.Pool). A function whose frame needs more is allocated and dropped.
// A filed frame holds Values, slot bytes and its last program, whose
// records name only interned types, so it pins no function. At the largest
// class a frame is about 3 MiB (vals, locals, and a 56-byte op per
// instruction), so 16 of them bound the list at about 48 MiB; the suite's
// frames are in the smallest classes.
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

// takeFrame returns a frame holding f decoded (decode.go) and args behind
// its results, a recycled one when the list holds one of its class. Its
// values are sized for f's results, parameters and constants; reset readies
// it for each thread. The recycling is invisible because decode rewrites
// the program and every constant slot, the arguments are rewritten here,
// and reset clears every result.
func takeFrame(f *ir.Function, args []Value) *frame {
	params := f.InstrIDBound()
	n := params + len(args) + countConsts(f)
	class := frameClass(n)
	fr, ok := freeFrames.Take(class)
	if ok {
		fr.vals = fr.vals[:n]
	} else {
		fr = &frame{vals: make([]Value, n, max(class, n))}
	}
	fr.fn, fr.params = f, params
	fr.decode(f)
	copy(fr.vals[params:], args)
	return fr
}

// putFrame files fr for a later launch; the caller must not touch fr
// afterwards. Only frames takeFrame sized at a class are kept.
func putFrame(fr *frame) {
	fr.fn = nil
	if c := cap(fr.vals); frameClass(c) == c {
		freeFrames.Put(c, fr)
	}
}
