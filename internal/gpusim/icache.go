package gpusim

// lruICache is an exact O(1) LRU instruction cache: a line -> slot map
// plus an intrusive doubly-linked recency list over the slots. It models
// the same policy as a tick-stamped map with min-tick eviction (update
// recency on hit and insert, evict the least recently used line when
// full) without the per-miss full scan, and — unlike an approximating
// clock hand — reproduces that policy's eviction victims exactly, which
// the golden metrics corpus depends on. Only programs that overflow the
// icache reach this path; fitting programs use the first-touch bitset.
type lruICache struct {
	slot []int32 // line -> slot index + 1; 0 = not resident
	line []int32 // slot -> resident line
	prev []int32 // slot -> more recently used slot (-1 = head)
	next []int32 // slot -> less recently used slot (-1 = tail)
	head int32   // most recently used slot
	tail int32   // least recently used slot
	used int32
	cap  int32
}

// init empties the cache for a program of numLines lines, reusing the
// arrays of a previous run when they are large enough.
func (c *lruICache) init(numLines, capacity int) {
	c.slot = zeroed(c.slot, numLines)
	c.line = zeroed(c.line, capacity)
	c.prev = zeroed(c.prev, capacity)
	c.next = zeroed(c.next, capacity)
	c.head, c.tail = -1, -1
	c.used = 0
	c.cap = int32(capacity)
}

// fetch touches line and reports whether the access missed.
func (c *lruICache) fetch(line int32) bool {
	if sp := c.slot[line]; sp != 0 {
		c.moveToFront(sp - 1)
		return false
	}
	var s int32
	if c.used < c.cap {
		s = c.used
		c.used++
		c.pushFront(s)
	} else {
		s = c.tail
		c.slot[c.line[s]] = 0 // evict the LRU line
		c.moveToFront(s)
	}
	c.line[s] = line
	c.slot[line] = s + 1
	return true
}

func (c *lruICache) pushFront(s int32) {
	c.prev[s] = -1
	c.next[s] = c.head
	if c.head >= 0 {
		c.prev[c.head] = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

func (c *lruICache) moveToFront(s int32) {
	if s == c.head {
		return
	}
	p, n := c.prev[s], c.next[s]
	if p >= 0 {
		c.next[p] = n
	}
	if n >= 0 {
		c.prev[n] = p
	}
	if s == c.tail {
		c.tail = p
	}
	c.pushFront(s)
}
