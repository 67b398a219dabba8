// The sharded memoization cache: a power-of-two array of independently
// locked LRU shards keyed by the 128-bit evaluation hash. Sharding removes
// the single global lock the worker pool used to serialize on — with ~µs
// evaluations, one mutex saturates around a handful of cores; per-shard
// locks keep the hot path embarrassingly parallel.
package explore

import (
	"container/list"
	"runtime"
	"sync"
)

// cacheEntry is one LRU slot: the memo key (so eviction can delete the map
// entry) and the memoized value. The cache is generic over the entry type —
// the engine keeps two instances, one of whole evaluations (memoEntry) and
// one of embodied sub-terms (embodiedEntry).
type cacheEntry[E any] struct {
	key keyPair
	ent *E
}

// memoShard is one independently locked segment. Bounded shards maintain an
// LRU list for eviction; unbounded shards (limit ≤ 0) skip the list
// entirely — a plain keyPair → entry map — because nothing is ever evicted,
// which removes two allocations per insert and the MoveToFront write per
// hit from the hot path of unbounded engines (CLIs, benchmarks).
type memoShard[E any] struct {
	mu    sync.Mutex
	memo  map[keyPair]*list.Element // bounded mode → *cacheEntry[E]
	plain map[keyPair]*E            // unbounded mode
	slab  []E                       // unbounded mode: chunked entry storage
	lru   *list.List                // front = most recently used (bounded)
	limit int                       // ≤0 = unbounded

	// pad spaces shards apart so their mutexes do not false-share one
	// cache line under cross-core contention.
	_ [40]byte
}

// shardSlab is how many entries an unbounded shard allocates at a time:
// entries live exactly as long as the cache (nothing is ever evicted), so
// carving them from chunks trades one allocation per insert for one per
// chunk. Pointers into the slab are stable — the slice is only resliced
// forward, never grown.
const shardSlab = 64

// memoCache routes keys to shards by the low hash bits.
type memoCache[E any] struct {
	shards []memoShard[E]
	mask   uint64
}

// newMemoCache sizes the shard array: enough shards to spread GOMAXPROCS
// workers (capped at 16 — beyond that the lock is off the profile), but
// never so many that a small CacheLimit degenerates into per-shard limits
// of a handful of entries. limit ≤ 0 means unbounded; shards > 0 forces an
// explicit count (rounded up to a power of two).
func newMemoCache[E any](limit, shards int) *memoCache[E] {
	n := shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 16 {
			n = 16
		}
		// A bounded cache needs ≥64 entries per shard for per-shard LRU to
		// approximate global LRU; degrade to fewer shards, not worse reuse.
		for n > 1 && limit > 0 && limit/n < 64 {
			n /= 2
		}
	}
	// Round up to a power of two for mask routing; a bounded cache never
	// gets more shards than entries, so the per-shard limits below stay
	// ≥ 1 while summing to exactly the global bound.
	p := 1
	for p < n {
		p <<= 1
	}
	for limit > 0 && p > limit {
		p >>= 1
	}
	c := &memoCache[E]{shards: make([]memoShard[E], p), mask: uint64(p - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		if limit > 0 {
			s.memo = make(map[keyPair]*list.Element)
			s.lru = list.New()
			// Distribute the global bound; the first shards take the
			// remainder so the per-shard limits sum to exactly limit.
			s.limit = limit / p
			if i < limit%p {
				s.limit++
			}
		} else {
			s.plain = make(map[keyPair]*E)
		}
	}
	return c
}

func (c *memoCache[E]) shard(key keyPair) *memoShard[E] {
	return &c.shards[key.lo&c.mask]
}

// reserve pre-sizes the unbounded shards for about n upcoming insertions,
// so a cold stream of known length pays no incremental map growth or
// rehashing on the hot path. A cold-start hint only: shards that already
// hold entries are left alone, and a bounded cache (every shard's limit is
// ≥ 1, its resident size capped by it) returns without taking a lock.
func (c *memoCache[E]) reserve(n int) {
	if n <= 0 || c.shards[0].limit > 0 {
		return
	}
	per := n/len(c.shards) + 1
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if s.limit <= 0 && len(s.plain) == 0 {
			s.plain = make(map[keyPair]*E, per)
		}
		s.mu.Unlock()
	}
}

// get returns the memo entry for key, inserting a fresh one on miss.
// hit reports whether the entry already existed; evicted is the number of
// entries dropped to keep the shard inside its limit.
func (c *memoCache[E]) get(key keyPair) (ent *E, hit bool, evicted int) {
	s := c.shard(key)
	s.mu.Lock()
	if s.limit <= 0 {
		ent, hit = s.plain[key]
		if !hit {
			if len(s.slab) == 0 {
				s.slab = make([]E, shardSlab)
			}
			ent = &s.slab[0]
			s.slab = s.slab[1:]
			s.plain[key] = ent
		}
		s.mu.Unlock()
		return ent, hit, 0
	}
	if el, ok := s.memo[key]; ok {
		s.lru.MoveToFront(el)
		ent = el.Value.(*cacheEntry[E]).ent
		s.mu.Unlock()
		return ent, true, 0
	}
	ent = new(E)
	s.memo[key] = s.lru.PushFront(&cacheEntry[E]{key: key, ent: ent})
	if s.limit > 0 {
		for len(s.memo) > s.limit {
			back := s.lru.Back()
			delete(s.memo, back.Value.(*cacheEntry[E]).key)
			s.lru.Remove(back)
			evicted++
		}
	}
	s.mu.Unlock()
	return ent, false, evicted
}

// entries sums the resident entry counts across shards.
func (c *memoCache[E]) entries() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.memo) + len(s.plain)
		s.mu.Unlock()
	}
	return total
}

// count returns the number of shards (for stats and tests).
func (c *memoCache[E]) count() int { return len(c.shards) }
