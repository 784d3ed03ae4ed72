package server

import (
	"container/list"
	"sync"
	"time"
)

// CacheKey is the raw SHA-256 of a spec's canonical encoding — the job's
// content address as a fixed-size array, so the hot path never allocates
// a hex string to index the cache.
type CacheKey [32]byte

// Cache is the content-addressed result store: canonical-spec key →
// finished Outcome, one LRU behind one mutex. The same lock guards the
// single-flight table and the body-hash aliases, so a key's whole
// lifecycle (flight, insert, hit, evict) happens under it. Only
// successful outcomes are cached (failures and cancellations must
// re-run), and eviction is LRU so sweeps larger than the capacity
// degrade to recomputation, never to an error. Entries and Outcomes are
// immutable once inserted — a replacement is a new entry, never an
// in-place write — so a reader holding an entry after the cache unlocks
// is always safe.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[CacheKey]*list.Element
	order     *list.List // front = most recently used
	inflight  map[CacheKey]*Job
	evictions uint64
	// aliases maps a request body's hash to the key its spec decoded to,
	// so a repeated body skips decoding (see addAlias).
	aliases map[CacheKey]CacheKey
}

// aliasesPerSlot bounds the aliases at this many per cache slot: room
// for a couple of spellings of every cached spec.
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

// NewCache builds a cache holding at most capacity outcomes; capacity
// <= 0 disables caching entirely (every lookup misses, every put drops).
func NewCache(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		entries:  make(map[CacheKey]*list.Element),
		order:    list.New(),
		inflight: make(map[CacheKey]*Job),
		aliases:  make(map[CacheKey]CacheKey),
	}
}

// lookup returns the cached entry for a key, refreshing its recency.
func (c *Cache) lookup(key CacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	c.mu.Unlock()
	return ent, true
}

// flight returns the in-flight job computing a key, if any.
func (c *Cache) flight(key CacheKey) (*Job, bool) {
	c.mu.Lock()
	job, ok := c.inflight[key]
	c.mu.Unlock()
	return job, ok
}

// setFlight registers job as the single flight for its key.
func (c *Cache) setFlight(key CacheKey, job *Job) {
	c.mu.Lock()
	c.inflight[key] = job
	c.mu.Unlock()
}

// clearFlight removes the flight registration, but only if job still owns
// it — a raced replacement flight must not be torn down by its
// predecessor's completion.
func (c *Cache) clearFlight(key CacheKey, job *Job) {
	c.mu.Lock()
	if c.inflight[key] == job {
		delete(c.inflight, key)
	}
	c.mu.Unlock()
}

// put inserts a fully-formed entry, evicting the least recently used
// entries when full. An existing key is replaced with the new entry
// (never mutated in place — readers may hold the old one outside the lock).
func (c *Cache) put(ent *cacheEntry) {
	if c.capacity <= 0 || ent.outcome == nil {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[ent.key]; ok {
		el.Value = ent
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[ent.key] = c.order.PushFront(ent)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.mu.Unlock()
}

// alias returns the cache key a body hash was recorded against. The key's
// entry may have been evicted since; callers look it up as usual.
func (c *Cache) alias(body CacheKey) (CacheKey, bool) {
	c.mu.Lock()
	key, ok := c.aliases[body]
	c.mu.Unlock()
	return key, ok
}

// addAlias records that a body hash decodes to key. A full table first
// drops one alias at random (Go randomizes map iteration order), so the
// table stays within aliasesPerSlot × capacity however many distinct
// bodies arrive.
func (c *Cache) addAlias(body, key CacheKey) {
	c.mu.Lock()
	if _, ok := c.aliases[body]; !ok && len(c.aliases) >= aliasesPerSlot*c.capacity {
		for old := range c.aliases {
			delete(c.aliases, old)
			break
		}
	}
	c.aliases[body] = key
	c.mu.Unlock()
}

// putOutcome caches a finished job's result under its content address.
func (c *Cache) putOutcome(job *Job, out *Outcome) {
	c.put(newCacheEntry(job.key, job.Hash, job.Spec, out))
}

// Len returns the number of cached outcomes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Evictions returns the LRU eviction count.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
