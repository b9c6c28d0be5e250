// Package freelist is the bounded free list behind four kinds of recycled
// storage: device memories (internal/interp) and run state
// (internal/gpusim) for the simulator, the interpreter's per-thread frames
// (internal/interp), and the scratch bundle each compilation borrows for
// its passes' tables (internal/pipeline).
//
// It is deliberately not a sync.Pool. A pool is emptied by the garbage
// collector, so what a run allocates would depend on when the collector last
// ran — and the benchmark's alloc_mb, which repeats to a fraction of a
// percent, is a bounded metric. A List allocates nothing itself and misses
// exactly when it holds no value of the class asked for, which is a property
// of the inputs: values are filed under a size class chosen by the caller
// and handed out only for that same class, never "anything large enough",
// so in a serial run a class is built once however the requests are ordered.
// The compiler's bundles have a single class: their tables grow to what they
// serve, so any bundle serves any compilation, and a serial run builds one.
package freelist

import "sync"

// List holds up to a fixed number of values of type T, each filed under a
// class K. The zero List holds nothing and retains nothing; make one with
// New. It is safe for concurrent use.
type List[K comparable, T any] struct {
	mu    sync.Mutex
	max   int
	items []item[K, T] // oldest first
}

type item[K comparable, T any] struct {
	class K
	v     T
}

// New returns a list that retains at most max (>= 1) values.
func New[K comparable, T any](max int) *List[K, T] {
	return &List[K, T]{max: max}
}

// Take removes and returns the most recently put value of the class, if
// the list holds one.
func (l *List[K, T]) Take(class K) (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.items) - 1; i >= 0; i-- {
		if l.items[i].class == class {
			v = l.items[i].v
			last := len(l.items) - 1
			copy(l.items[i:], l.items[i+1:])
			l.items[last] = item[K, T]{} // the list keeps no reference to v
			l.items = l.items[:last]
			return v, true
		}
	}
	return v, false
}

// Put files v under class. When the list is full the value put longest ago
// is dropped to make room. The caller must not use v afterwards.
func (l *List[K, T]) Put(class K, v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) == l.max {
		copy(l.items, l.items[1:])
		l.items = l.items[:len(l.items)-1]
	}
	l.items = append(l.items, item[K, T]{class, v})
}

// Len reports how many values the list holds.
func (l *List[K, T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}
