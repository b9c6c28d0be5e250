// Package freelist is the program's one way to recycle storage: the bounded
// free list behind nine kinds of recycled values, and the two functions
// every recycled table is reset with.
//
// The lists hold device memories (internal/interp) and run state
// (internal/gpusim) for the simulator, the scratch bundle each compilation
// borrows for its passes' tables and its analysis manager's trees
// (internal/pipeline), the tables and analysis storage each lowering works
// in and the arrays a released program leaves for the next one to be
// lowered in (internal/codegen), the simulator's decoded form of a released
// program (internal/gpusim), the store of blocks and instructions a released
// function leaves for the next one to be carved from (internal/ir), and a
// uud request's byte buffers and request state (internal/serve). Each
// list's comment names its price: how much more the benchmark allocates
// with its Put discarded. A list that does not pay is deleted, as the
// interpreter's frame list was.
//
// Take hands out the value filed most recently. What a caller does with a
// value sized for another request decides whether a run's allocation
// depends on the order its requests come in:
//
//   - The compiler's bundles, codegen's scratch, program stores, decoded
//     forms, IR stores and uud's buffers grow what they take to fit what
//     they serve, so one list serves every request and a serial run builds
//     only what its largest request needs, but how often it regrows
//     depends on the order of the requests.
//   - Device memories and simulator run state are sized at a class, a power
//     of two, and filed on one list per class, so a value is only ever
//     reused at its class and in a serial run each class is built once
//     however the requests are ordered. The benchmark's simulate workload
//     draws its op order from the seed, and its alloc_mb spread over seeds
//     is gated: grown to fit, these two read 4.8 to 8.7 MB across ten seeds.
//
// A caller may refuse to file a value past a ceiling of its own.
//
// A table inside a recycled value — indexed by an ID, a register or a lane
// — is resized with Zeroed, and a list that must not keep what it held
// alive is emptied with Emptied. Zeroed grows by append's rule, the one
// slices.Grow follows: a table whose bound creeps up between uses (the ID
// bounds within one compilation do) regrows rarely, and one that jumps past
// twice its array is allocated at its length. An exact make instead costs
// the benchmark's sweep 1.7 % more (EXPERIMENTS.md "One growth rule for
// recycled tables").
//
// Nothing is recycled through a sync.Pool. A pool is emptied by the garbage
// collector, so what a run allocates would depend on when the collector last
// ran — and the benchmark's alloc_mb, which repeats to a fraction of a
// percent, is a bounded metric. A List allocates nothing itself and misses
// exactly when it is empty.
package freelist

import (
	"slices"
	"sync"
)

// Bound is how many values a List retains; past it, the value filed longest
// ago is dropped.
const Bound = 16

// List holds up to Bound values of type T. The zero List is empty and ready
// to use, as is one from New. It is safe for concurrent use.
type List[T any] struct {
	mu    sync.Mutex
	items []T // oldest first
}

// New returns an empty list.
func New[T any]() *List[T] {
	return new(List[T])
}

// Take removes and returns the value filed most recently, if the list holds
// one.
func (l *List[T]) Take() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := len(l.items) - 1
	if last < 0 {
		return v, false
	}
	v = l.items[last]
	l.items[last] = *new(T) // the list keeps no reference to v
	l.items = l.items[:last]
	return v, true
}

// Put files v. When the list is full the value filed longest ago is dropped
// to make room. The caller must not use v afterwards.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) == Bound {
		copy(l.items, l.items[1:])
		l.items = l.items[:Bound-1]
	}
	l.items = append(l.items, v)
}

// Len reports how many values the list holds.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Zeroed returns s at length n with every element zero, in s's array when
// it holds n entries and otherwise in one grown from it by append's rule.
func Zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Emptied clears the whole of s's array, past its length too, so it keeps
// nothing it held alive, and returns it empty.
func Emptied[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}
