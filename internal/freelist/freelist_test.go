package freelist

import (
	"sync"
	"testing"
)

func TestTakeIsLastInFirstOut(t *testing.T) {
	l := New[string]()
	if _, ok := l.Take(); ok {
		t.Fatalf("a new list handed out a value")
	}
	l.Put("a")
	l.Put("b")
	l.Put("c")
	for _, want := range []string{"c", "b", "a"} {
		if v, ok := l.Take(); !ok || v != want {
			t.Fatalf("Take() = %q, %v; want %q", v, ok, want)
		}
	}
	if _, ok := l.Take(); ok || l.Len() != 0 {
		t.Fatalf("the list should be empty, holds %d", l.Len())
	}
}

func TestPutDropsTheOldestWhenFull(t *testing.T) {
	l := New[int]()
	for i := 1; i <= Bound+2; i++ {
		l.Put(i)
		if l.Len() > Bound {
			t.Fatalf("Len = %d after %d puts, bound %d", l.Len(), i, Bound)
		}
	}
	for want := Bound + 2; want > 2; want-- {
		if v, ok := l.Take(); !ok || v != want {
			t.Fatalf("Take() = %d, %v; want %d", v, ok, want)
		}
	}
	if v, ok := l.Take(); ok {
		t.Fatalf("Take() = %d; 1 and 2 should have been dropped", v)
	}
}

// TestConcurrentUse is for the race detector: no value is ever handed to
// two takers.
func TestConcurrentUse(t *testing.T) {
	l := New[*int]()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p, ok := l.Take()
				if !ok {
					p = new(int)
				}
				*p = g // a second owner would race here
				l.Put(p)
			}
		}(g)
	}
	wg.Wait()
}
