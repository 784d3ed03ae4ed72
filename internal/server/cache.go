package server

import (
	"container/list"
	"crypto/sha256"
	"math/bits"
	"sync"
	"time"
)

// CacheKey is the raw SHA-256 of a spec's canonical encoding — the job's
// content address as a fixed-size array, so the hot path never allocates
// a hex string to index the cache.
type CacheKey [32]byte

// keyFor hashes an arbitrary string into a CacheKey; tests and the legacy
// Get/Put surface use it so string keys keep working.
func keyFor(hash string) CacheKey { return sha256.Sum256([]byte(hash)) }

// Cache is the content-addressed result store: canonical-spec key →
// finished Outcome, sharded so concurrent hits on distinct keys never
// contend on one lock. Each shard is an independent LRU with its own
// mutex, recency list, and single-flight table; the shard is chosen from
// the key's first byte, so a key's whole lifecycle (flight, insert, hit,
// evict) happens under one shard lock. Only successful outcomes are
// cached (failures and cancellations must re-run), and eviction is LRU
// per shard so sweeps larger than the capacity degrade to recomputation,
// never to an error. Entries and Outcomes are immutable once inserted —
// a replacement is a new entry, never an in-place write — so a reader
// holding an entry after the shard unlocks is always safe.
type Cache struct {
	shards []*cacheShard
	mask   uint32
}

type cacheShard struct {
	mu        sync.Mutex
	capacity  int
	entries   map[CacheKey]*list.Element
	order     *list.List // front = most recently used
	inflight  map[CacheKey]*Job
	evictions uint64
	// aliases maps a request body's hash to the key its spec decoded to,
	// so a repeated body skips decoding (see addAlias). It is keyed and
	// sharded by the body hash, not by the key it names.
	aliases map[CacheKey]CacheKey
}

// aliasesPerSlot bounds each shard's aliases at this many per cache slot:
// room for a couple of spellings of every cached spec.
const aliasesPerSlot = 2

// cacheEntry is one cached result. hexHash and spec are frozen at insert
// time so a cache hit can mint its response View without re-encoding.
// hitHead and hitTail are that View's HTTP body, encoded once by
// newCacheEntry and split around the SubmittedAt value, so the handler
// serves a hit as head + timestamp + tail (writeHit); both are nil for
// an entry built without newCacheEntry, which writeHit encodes per hit.
type cacheEntry struct {
	key              CacheKey
	hexHash          string
	spec             JobSpec
	outcome          *Outcome
	hitHead, hitTail []byte
}

// newCacheEntry builds an entry and pre-encodes its hit response.
func newCacheEntry(key CacheKey, hexHash string, spec JobSpec, out *Outcome) *cacheEntry {
	ent := &cacheEntry{key: key, hexHash: hexHash, spec: spec, outcome: out}
	ent.hitHead, ent.hitTail = encodeHit(ent.hitView(time.Time{}))
	return ent
}

// hitView is the response for a request served straight from this entry:
// a terminal, cache-hit view that never touched the job table. It has no
// job ID — nothing was minted — and SubmittedAt doubles as the serve time.
func (e *cacheEntry) hitView(now time.Time) View {
	return View{
		Hash:        e.hexHash,
		Spec:        e.spec,
		State:       StateDone,
		Outcome:     e.outcome,
		CacheHit:    true,
		SubmittedAt: now,
	}
}

// hit is a submission served from the cache: the entry and the serve
// time its response is stamped with.
type hit struct {
	ent *cacheEntry
	at  time.Time
}

// view is the hit's response View.
func (h hit) view() View { return h.ent.hitView(h.at) }

// NewCache builds a single-shard cache holding at most capacity outcomes
// — the exact semantics of the original single-lock implementation;
// capacity <= 0 disables caching entirely (every Get misses, every Put
// drops). The executor uses NewShardedCache.
func NewCache(capacity int) *Cache { return NewShardedCache(capacity, 1) }

// NewShardedCache builds a cache of `shards` independent LRUs (rounded up
// to a power of two) splitting `capacity` between them. Aggregate
// capacity and eviction counts match a single-lock cache of the same
// capacity; per-key eviction order matches per shard (pinned by
// TestShardedCacheMatchesReferencePerShard).
func NewShardedCache(capacity, shards int) *Cache {
	if shards < 1 {
		shards = 1
	}
	if shards&(shards-1) != 0 {
		shards = 1 << bits.Len(uint(shards))
	}
	if capacity > 0 && shards > capacity {
		// Largest power of two <= capacity, so no shard ends up with zero
		// slots (a zero-capacity shard silently drops its keys).
		shards = 1 << (bits.Len(uint(capacity)) - 1)
	}
	c := &Cache{shards: make([]*cacheShard, shards), mask: uint32(shards - 1)}
	base, extra := 0, 0
	if capacity > 0 {
		base, extra = capacity/shards, capacity%shards
	} else {
		base = capacity // <= 0 disables every shard
	}
	for i := range c.shards {
		slots := base
		if capacity > 0 && i < extra {
			slots++
		}
		c.shards[i] = &cacheShard{
			capacity: slots,
			entries:  make(map[CacheKey]*list.Element),
			order:    list.New(),
			inflight: make(map[CacheKey]*Job),
			aliases:  make(map[CacheKey]CacheKey),
		}
	}
	return c
}

// cacheShardsFor picks the executor's shard count: enough to spread
// contention across cores without slicing a small capacity into useless
// slivers.
func cacheShardsFor(capacity int) int {
	if capacity <= 0 {
		return 1
	}
	n := 1
	for n*2 <= 16 && n*2 <= capacity {
		n *= 2
	}
	return n
}

func (c *Cache) shard(key CacheKey) *cacheShard {
	idx := uint32(key[0]) | uint32(key[1])<<8 | uint32(key[2])<<16 | uint32(key[3])<<24
	return c.shards[idx&c.mask]
}

// lookup returns the cached entry for a key, refreshing its recency.
func (c *Cache) lookup(key CacheKey) (*cacheEntry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	s.mu.Unlock()
	return ent, true
}

// flight returns the in-flight job computing a key, if any.
func (c *Cache) flight(key CacheKey) (*Job, bool) {
	s := c.shard(key)
	s.mu.Lock()
	job, ok := s.inflight[key]
	s.mu.Unlock()
	return job, ok
}

// setFlight registers job as the single flight for its key.
func (c *Cache) setFlight(key CacheKey, job *Job) {
	s := c.shard(key)
	s.mu.Lock()
	s.inflight[key] = job
	s.mu.Unlock()
}

// clearFlight removes the flight registration, but only if job still owns
// it — a raced replacement flight must not be torn down by its
// predecessor's completion.
func (c *Cache) clearFlight(key CacheKey, job *Job) {
	s := c.shard(key)
	s.mu.Lock()
	if s.inflight[key] == job {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
}

// put inserts a fully-formed entry, evicting the shard's least recently
// used entries when full. An existing key is replaced with the new entry
// (never mutated in place — readers may hold the old one outside the lock).
func (c *Cache) put(ent *cacheEntry) {
	s := c.shard(ent.key)
	if s.capacity <= 0 || ent.outcome == nil {
		return
	}
	s.mu.Lock()
	if el, ok := s.entries[ent.key]; ok {
		el.Value = ent
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.entries[ent.key] = s.order.PushFront(ent)
	for s.order.Len() > s.capacity {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
	s.mu.Unlock()
}

// alias returns the cache key a body hash was recorded against. The key's
// entry may have been evicted since; callers look it up as usual.
func (c *Cache) alias(body CacheKey) (CacheKey, bool) {
	s := c.shard(body)
	s.mu.Lock()
	key, ok := s.aliases[body]
	s.mu.Unlock()
	return key, ok
}

// addAlias records that a body hash decodes to key. A full shard first
// drops one alias at random (Go randomizes map iteration order), so the
// table stays within aliasesPerSlot × capacity however many distinct
// bodies arrive.
func (c *Cache) addAlias(body, key CacheKey) {
	s := c.shard(body)
	s.mu.Lock()
	if _, ok := s.aliases[body]; !ok && len(s.aliases) >= aliasesPerSlot*s.capacity {
		for old := range s.aliases {
			delete(s.aliases, old)
			break
		}
	}
	s.aliases[body] = key
	s.mu.Unlock()
}

// putOutcome caches a finished job's result under its content address.
func (c *Cache) putOutcome(job *Job, out *Outcome) {
	c.put(newCacheEntry(job.key, job.Hash, job.Spec, out))
}

// Get returns the cached outcome for a string content hash, refreshing
// its recency. Legacy surface over lookup; the executor hot path uses
// lookup with a precomputed CacheKey.
func (c *Cache) Get(hash string) (*Outcome, bool) {
	ent, ok := c.lookup(keyFor(hash))
	if !ok {
		return nil, false
	}
	return ent.outcome, true
}

// Put stores an outcome under a string content hash, evicting the least
// recently used entry when full.
func (c *Cache) Put(hash string, out *Outcome) {
	c.put(newCacheEntry(keyFor(hash), hash, JobSpec{}, out))
}

// Len returns the number of cached outcomes across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Evictions returns the aggregate LRU eviction count across all shards.
func (c *Cache) Evictions() uint64 {
	var n uint64
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.evictions
		s.mu.Unlock()
	}
	return n
}
