package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"rwskit/internal/core"
)

// diffCacheFloor and diffCacheCeil bound the derived diff-cache
// capacity: at least the full pairwise surface of a DefaultRetain store,
// at most a few thousand diffs (a diff holds only the changed names, so
// even the ceiling is small next to one retained snapshot).
const (
	diffCacheFloor = 64
	diffCacheCeil  = 4096
)

// diffCacheCap sizes the diff cache for a store retaining n versions:
// the full ordered-pair surface (n²) so a loadgen sweep over every
// (from, to) combination fits without thrash, clamped to sane bounds.
//
//rws:allocfree
func diffCacheCap(n int) int {
	c := n * n
	if c < diffCacheFloor {
		return diffCacheFloor
	}
	if c > diffCacheCeil {
		return diffCacheCeil
	}
	return c
}

// diffKey identifies one memoized diff by its endpoint content hashes.
// Hash-keyed entries are content-addressed: a cached diff is correct
// forever, so invalidation (removeHash) is memory hygiene — dropping
// diffs no retained version can ask for — never a correctness need.
type diffKey struct {
	from, to string
}

// diffCacheMetrics is a counter snapshot for /v1/metrics.
type diffCacheMetrics struct {
	capacity      int
	entries       int
	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
	computes      uint64
}

// diffCache is a bounded LRU of core.DiffLists results keyed by
// (fromHash, toHash). The serve plane populates it on first /v1/diff
// or /v1/churn request per pair and at swap time for the new adjacent
// pair; Store eviction invalidates every entry touching the evicted
// hash. All counters are atomics so metrics reads take no lock.
type diffCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List                // guarded by mu; most recently used at front
	byK map[diffKey]*list.Element // guarded by mu

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64 // LRU capacity evictions
	invalidations atomic.Uint64 // entries dropped because a version was evicted
	computes      atomic.Uint64 // real core.DiffLists runs feeding the cache
}

// diffItem is one LRU slot.
type diffItem struct {
	key diffKey
	d   core.Diff
}

func newDiffCache(capacity int) *diffCache {
	return &diffCache{
		cap: capacity,
		ll:  list.New(),
		byK: make(map[diffKey]*list.Element, capacity),
	}
}

// get returns the memoized diff for (from, to) and marks it recently
// used. The counters tally hits and misses.
func (c *diffCache) get(from, to string) (core.Diff, bool) {
	k := diffKey{from: from, to: to}
	c.mu.Lock()
	el, ok := c.byK[k]
	var d core.Diff
	if ok {
		c.ll.MoveToFront(el)
		// Copy the value out under the lock: put updates an existing
		// item's diff in place.
		d = el.Value.(*diffItem).d
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return core.Diff{}, false
	}
	c.hits.Add(1)
	return d, true
}

// peek is get without the hit/miss counters — the swap path uses it to
// skip recomputing a diff a flapping source already paid for, and Diff
// to pick up a flight that finished under it, without polluting the
// request-path statistics.
func (c *diffCache) peek(from, to string) (core.Diff, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[diffKey{from: from, to: to}]
	if !ok {
		return core.Diff{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*diffItem).d, true
}

// put memoizes d for (from, to), evicting the least recently used entry
// when the cache is full. Re-putting an existing key refreshes recency.
func (c *diffCache) put(from, to string, d core.Diff) {
	k := diffKey{from: from, to: to}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[k]; ok {
		el.Value.(*diffItem).d = d
		c.ll.MoveToFront(el)
		return
	}
	c.byK[k] = c.ll.PushFront(&diffItem{key: k, d: d})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byK, oldest.Value.(*diffItem).key)
		c.evictions.Add(1)
	}
}

// removeHash drops every entry whose from or to endpoint is hash — the
// store calls it when a version is evicted, so the cache never holds
// diffs no retained version can request. The cache is at most a few
// thousand entries, so the linear sweep is cheap next to the snapshot
// precompute the eviction accompanies.
func (c *diffCache) removeHash(hash string) {
	c.mu.Lock()
	var drop []*list.Element
	for el := c.ll.Front(); el != nil; el = el.Next() {
		k := el.Value.(*diffItem).key
		if k.from == hash || k.to == hash {
			drop = append(drop, el)
		}
	}
	for _, el := range drop {
		c.ll.Remove(el)
		delete(c.byK, el.Value.(*diffItem).key)
	}
	c.mu.Unlock()
	c.invalidations.Add(uint64(len(drop)))
}

// len returns the live entry count.
func (c *diffCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// keys returns every cached key; test hook for the eviction-hygiene
// regression tests.
func (c *diffCache) keys() []diffKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]diffKey, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*diffItem).key)
	}
	return out
}

// metrics snapshots the counters.
func (c *diffCache) metrics() diffCacheMetrics {
	return diffCacheMetrics{
		capacity:      c.cap,
		entries:       c.len(),
		hits:          c.hits.Load(),
		misses:        c.misses.Load(),
		evictions:     c.evictions.Load(),
		invalidations: c.invalidations.Load(),
		computes:      c.computes.Load(),
	}
}
