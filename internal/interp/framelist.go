package interp

import (
	"uu/internal/freelist"
	"uu/internal/ir"
)

// The frame free list recycles interpreter frames between launches: an
// oracle is one RunLaunch, a test's thread one RunCounted, and each used to
// allocate its frame afresh. A launch takes the frame filed most recently
// and grows its values to fit the function (see package freelist for why
// not a sync.Pool); a frame of more than maxFrameValues values is never
// filed. A filed frame holds Values, slot bytes and its last program, whose
// records name only interned types, so it pins no function. At the ceiling
// a frame is about 3 MiB (vals, locals, and a 56-byte op per instruction),
// so freelist.Bound of them bound the list at about 48 MiB; the suite's
// frames are far smaller.
const maxFrameValues = 1 << 15

var freeFrames = freelist.New[*frame]()

// takeFrame returns a frame holding f decoded (decode.go) and args behind
// its results, a recycled one when the list holds one. Its values are sized
// for f's results, parameters and constants; reset readies it for each
// thread. The recycling is invisible because decode rewrites the program
// and every constant slot, the arguments are rewritten here, and reset
// clears every result.
func takeFrame(f *ir.Function, args []Value) *frame {
	params := f.InstrIDBound()
	n := params + len(args) + countConsts(f)
	fr, ok := freeFrames.Take()
	if !ok {
		fr = new(frame)
	}
	if cap(fr.vals) < n {
		fr.vals = make([]Value, n)
	}
	fr.vals = fr.vals[:n]
	fr.fn, fr.params = f, params
	fr.decode(f)
	copy(fr.vals[params:], args)
	return fr
}

// putFrame files fr for a later launch; the caller must not touch fr
// afterwards. A frame of more than maxFrameValues values is dropped.
func putFrame(fr *frame) {
	fr.fn = nil
	if cap(fr.vals) <= maxFrameValues {
		freeFrames.Put(fr)
	}
}
