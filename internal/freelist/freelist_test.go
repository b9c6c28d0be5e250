package freelist

import (
	"sync"
	"testing"
)

func TestTakeMatchesClassExactly(t *testing.T) {
	l := New[int, string](4)
	l.Put(8, "a")
	l.Put(16, "b")
	l.Put(8, "c")
	if _, ok := l.Take(4); ok {
		t.Fatalf("took a value of another class")
	}
	if v, ok := l.Take(8); !ok || v != "c" {
		t.Fatalf("Take(8) = %q, %v; want the most recent, c", v, ok)
	}
	if v, ok := l.Take(8); !ok || v != "a" {
		t.Fatalf("Take(8) = %q, %v; want a", v, ok)
	}
	if _, ok := l.Take(8); ok {
		t.Fatalf("class 8 should be empty")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestPutDropsTheOldestWhenFull(t *testing.T) {
	l := New[int, int](3)
	for i := 1; i <= 5; i++ {
		l.Put(i, i*10)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	for _, gone := range []int{1, 2} {
		if _, ok := l.Take(gone); ok {
			t.Fatalf("class %d should have been dropped", gone)
		}
	}
	for _, kept := range []int{3, 4, 5} {
		if v, ok := l.Take(kept); !ok || v != kept*10 {
			t.Fatalf("Take(%d) = %d, %v", kept, v, ok)
		}
	}
}

// TestConcurrentUse is for the race detector: no value is ever handed to
// two takers.
func TestConcurrentUse(t *testing.T) {
	l := New[int, *int](8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				class := i % 3
				p, ok := l.Take(class)
				if !ok {
					p = new(int)
				}
				*p = g // a second owner would race here
				l.Put(class, p)
			}
		}(g)
	}
	wg.Wait()
}
