package serve

import (
	"sync"
)

// qkey identifies a top-k query for caching: the (subject, predicate)
// pair and the k requested. Different k values are distinct cache
// entries — a k=5 hit must not serve a truncated k=10 answer or
// vice versa.
type qkey struct {
	subject   int64
	predicate int64
	k         int
}

// hash mixes the key into a stripe selector with the same splitmix64
// finalizer the storage layer uses for placement — cheap, stateless,
// and well-spread for sequential IDs.
func (q qkey) hash() uint64 {
	z := uint64(q.subject)*0x9e3779b97f4a7c15 ^ uint64(q.predicate)<<21 ^ uint64(q.k)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// flight is one in-progress computation of a query that followers wait
// on. done is closed (outside the stripe lock, which stays a leaf) once results
// is filled; err reports a failed leader so followers don't serve a
// zero-value ranking.
type flight struct {
	done    chan struct{}
	waiters int // followers registered before finish, under the stripe lock
	results []Result
	err     error
}

// entry is one cached ranking. Entries are reused on eviction: the
// results slice is truncated, not freed, so a warm cache stops
// allocating once every slot has been filled at the high-water k.
type entry struct {
	key     qkey
	results []Result
	prev    int32
	next    int32
}

// lruCache is a fixed-capacity LRU over a slice of entries with an
// index map and intrusive doubly-linked recency list. It is not
// self-locking: the owning stripe serializes access.
type lruCache struct {
	cap     int
	entries []entry
	index   map[qkey]int32
	head    int32 // most recently used; -1 when empty
	tail    int32 // least recently used; -1 when empty
}

func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		entries: make([]entry, 0, capacity),
		index:   make(map[qkey]int32, capacity),
		head:    -1,
		tail:    -1,
	}
}

// get returns the cached ranking for key and promotes it to most
// recently used.
func (c *lruCache) get(key qkey) ([]Result, bool) {
	i, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.unlink(i)
	c.pushFront(i)
	return c.entries[i].results, true
}

// put stores a ranking under key, evicting the least recently used
// entry when full. The results are copied into the entry's reusable
// buffer so the caller's scratch can be recycled immediately.
func (c *lruCache) put(key qkey, results []Result) {
	if c.cap <= 0 {
		return
	}
	if i, ok := c.index[key]; ok {
		// A follower raced the leader through the miss path; refresh.
		c.entries[i].results = append(c.entries[i].results[:0], results...)
		c.unlink(i)
		c.pushFront(i)
		return
	}
	var i int32
	if len(c.entries) < c.cap {
		c.entries = append(c.entries, entry{})
		i = int32(len(c.entries) - 1)
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.index, c.entries[i].key)
	}
	e := &c.entries[i]
	e.key = key
	e.results = append(e.results[:0], results...)
	c.index[key] = i
	c.pushFront(i)
}

func (c *lruCache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else if c.head == i {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else if c.tail == i {
		c.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (c *lruCache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// stripe is one lock domain of the result cache: an LRU plus the
// single-flight table for queries currently being computed. Queries
// hash to stripes, so unrelated traffic never contends on one mutex.
type stripe struct {
	mu      sync.Mutex
	lru     *lruCache
	flights map[qkey]*flight

	hits   uint64
	misses uint64
	shared uint64 // followers coalesced onto another query's flight
}

// lookup is the cache front door. It returns, in order of preference:
// a cached ranking (cached=true, dst filled); a flight to wait on
// (fl non-nil, leader=false); or leadership of a new flight (fl
// non-nil, leader=true) — the caller must compute the ranking and call
// finish. dst receives a copy of cached results under the lock so the
// entry can't be evicted out from under the caller.
func (s *stripe) lookup(key qkey, dst []Result) (res []Result, cached bool, fl *flight, leader bool) {
	s.mu.Lock()
	if r, ok := s.lru.get(key); ok {
		s.hits++
		dst = append(dst[:0], r...)
		s.mu.Unlock()
		return dst, true, nil, false
	}
	if f, ok := s.flights[key]; ok {
		s.shared++
		f.waiters++
		s.mu.Unlock()
		return dst, false, f, false
	}
	s.misses++
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()
	return dst, false, f, true
}

// finish publishes a leader's ranking: results are copied into the LRU
// (on success), the flight is removed from the table, and — after the
// lock is released — done is closed to release the followers. The
// flight gets its own copy of the results only when followers are
// actually waiting, because the leader's buffer is pooled scratch that
// is recycled as soon as finish returns.
func (s *stripe) finish(key qkey, fl *flight, results []Result, err error) {
	fl.err = err
	s.mu.Lock()
	if err == nil {
		s.lru.put(key, results)
	}
	if fl.waiters > 0 && err == nil {
		fl.results = append([]Result(nil), results...)
	}
	delete(s.flights, key)
	s.mu.Unlock()
	close(fl.done)
}

// cacheStats is a snapshot of one stripe's counters.
func (s *stripe) stats() (hits, misses, shared uint64) {
	s.mu.Lock()
	hits, misses, shared = s.hits, s.misses, s.shared
	s.mu.Unlock()
	return
}
