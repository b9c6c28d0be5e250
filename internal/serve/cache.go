package serve

import (
	"container/list"
	"slices"
)

// maxAliases bounds the request identities one cache entry remembers, so
// the alias index can never exceed maxAliases × the entry bound no matter
// how many spellings of one kernel (whitespace, renamed locals) arrive.
const maxAliases = 4

// lruCache is the content-addressed result cache: fingerprint → completed
// response, bounded by entry count with least-recently-used eviction. Only
// successful responses are cached — errors (deadlines, panics, sheds) must
// re-execute, both because they are cheap to produce and because caching a
// transient failure would poison every future duplicate.
//
// A second index, idents, maps a request's raw identity (requestIdentity)
// to the entry its fingerprint resolved to, so a repeat submission finds
// its result without rebuilding IR. Aliases belong to their entry: they are
// added only once the entry exists and are deleted when it is evicted, so
// the index never points at a missing entry and needs no eviction policy
// of its own. The cache is not safe for concurrent use; the Server
// serializes access under its mutex.
type lruCache struct {
	max    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	idents map[identity]*list.Element
}

type lruEntry struct {
	key     string
	val     *Response
	aliases []identity // oldest first, at most maxAliases
}

func newLRU(max int) *lruCache {
	return &lruCache{
		max:    max,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
		idents: make(map[identity]*list.Element),
	}
}

func (c *lruCache) get(key string) (*Response, bool) {
	return c.touch(c.items[key])
}

// lookup is get by request identity.
func (c *lruCache) lookup(id identity) (*Response, bool) {
	return c.touch(c.idents[id])
}

func (c *lruCache) touch(el *list.Element) (*Response, bool) {
	if el == nil {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put caches v under key and aliases every given identity to it.
func (c *lruCache) put(key string, v *Response, idents ...identity) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: v})
		for c.ll.Len() > c.max {
			last := c.ll.Back()
			c.ll.Remove(last)
			e := last.Value.(*lruEntry)
			delete(c.items, e.key)
			for _, id := range e.aliases {
				delete(c.idents, id)
			}
		}
	}
	for _, id := range idents {
		c.alias(key, id)
	}
}

// alias points id at key's entry; without such an entry it does nothing.
// An identity that already has an alias keeps it: buildSpec is a pure
// function of the identity fields, so the fingerprint it resolved to
// before is the one it resolved to now. A full entry drops its oldest
// alias.
func (c *lruCache) alias(key string, id identity) {
	el, ok := c.items[key]
	if !ok {
		return
	}
	if _, ok := c.idents[id]; ok {
		return
	}
	e := el.Value.(*lruEntry)
	if len(e.aliases) == maxAliases {
		delete(c.idents, e.aliases[0])
		e.aliases = slices.Delete(e.aliases, 0, 1)
	}
	e.aliases = append(e.aliases, id)
	c.idents[id] = el
}

func (c *lruCache) len() int { return c.ll.Len() }
