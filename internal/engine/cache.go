package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// DefaultCacheCapacity is the entry bound of the process-default cache.
const DefaultCacheCapacity = 1024

// CacheStats is an observability snapshot of a cache.
type CacheStats struct {
	// Hits and Misses count lookups; Evictions counts entries dropped
	// by the LRU bound.
	Hits, Misses, Evictions uint64
	// Entries is the current entry count.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache memoizes simulation results keyed by the stable fingerprint of
// (chip specification, program, sim options). It is safe for concurrent
// use. Hits return deep copies, so a caller mutating a result can never
// corrupt later hits. Two goroutines missing on the same key may both
// simulate; the simulation is pure, so either result is correct and one
// simply wins the insert.
//
// Chip fingerprints are memoized per *hw.Chip pointer, relying on the
// documented Chip contract of immutability after construction.
//
// Internally the cache is sharded: each shard owns a slice of the
// capacity, its own LRU list and its own mutex, so concurrent workers
// hitting different keys never contend on one lock. Small caches (under
// one shard's worth of entries) collapse to a single shard and keep
// exact global-LRU semantics.
type Cache struct {
	shards []cacheShard
}

// shardTarget is the approximate per-shard capacity used to pick the
// shard count: capacity/shardTarget shards, clamped to [1, maxShards].
// The floor keeps small caches single-sharded (exact LRU, the behavior
// unit tests pin); the ceiling bounds per-shard bookkeeping overhead.
const (
	shardTarget = 64
	maxShards   = 16
)

// cacheShard is one independently locked LRU slice of the cache. The
// pad keeps neighboring shards' mutexes and counters on distinct cache
// lines so workers on different shards never false-share.
type cacheShard struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	byKey     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	_         [40]byte
}

// chipFPs memoizes fingerprints per chip pointer, shared by every cache
// layer (memory LRU and disk). Its bound caps it for callers minting
// fresh chips per call (graph.Run derives per-core chips on every call);
// when full it starts over instead of refusing new chips.
var chipFPs = hw.NewChipMemo[string](maxChipFPs)

const maxChipFPs = 4096

// chipFingerprint returns the memoized fingerprint of chip; ok is false
// when the chip cannot be fingerprinted.
func chipFingerprint(chip *hw.Chip) (string, bool) {
	if fp, ok := chipFPs.Load(chip); ok {
		return fp, true
	}
	fp, err := chip.Fingerprint()
	if err != nil {
		return "", false
	}
	chipFPs.Store(chip, fp)
	return fp, true
}

type cacheEntry struct {
	key  string
	prof *profile.Profile
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	n := capacity / shardTarget
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	c := &Cache{shards: make([]cacheShard, n)}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = base
		if i < extra {
			s.capacity++
		}
		s.ll = list.New()
		s.byKey = make(map[string]*list.Element, s.capacity)
	}
	return c
}

// shard routes a key to its shard via FNV-1a over the key bytes. The
// key's leading chip fingerprint is shared across a run's lookups, so
// the whole key participates to spread program fingerprints evenly.
func (c *Cache) shard(key string) *cacheShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// Stats returns a snapshot of the hit/miss/eviction counters summed
// across shards. Each shard snapshots atomically under its own lock;
// the sum is a consistent total for any quiescent cache and a close
// approximation under concurrent traffic.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += s.ll.Len()
		s.mu.Unlock()
	}
	return st
}

// cacheKey builds the cache key shared by the memory and disk layers;
// ok is false when the chip cannot be fingerprinted (the caller then
// bypasses the cache).
func cacheKey(chip *hw.Chip, prog *isa.Program, opts sim.Options) (string, bool) {
	chipFP, ok := chipFingerprint(chip)
	if !ok {
		return "", false
	}
	flags := []byte("--")
	if opts.DisableHazards {
		flags[0] = 'h'
	}
	if opts.KeepSpans {
		flags[1] = 's'
	}
	return chipFP + "|" + prog.Fingerprint() + "|" + string(flags), true
}

// lookup returns a deep copy of the cached profile for key, or nil.
// The deep copy happens outside the shard lock: cached profiles are
// immutable once inserted (inserts store private copies, hits hand out
// clones), so the pointer stays valid after unlock even if the entry
// is evicted concurrently — and the lock is held only for the map
// probe and LRU bump, not the profile copy.
func (c *Cache) lookup(key string) *profile.Profile {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.byKey[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil
	}
	s.hits++
	s.ll.MoveToFront(el)
	prof := el.Value.(*cacheEntry).prof
	s.mu.Unlock()
	return prof.Clone()
}

// insert stores prof (which must be private to the cache) under key,
// evicting the least recently used entry beyond the shard's capacity.
func (c *Cache) insert(key string, prof *profile.Profile) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		// Lost a race with another inserter; keep the existing entry.
		s.ll.MoveToFront(el)
		return
	}
	s.byKey[key] = s.ll.PushFront(&cacheEntry{key: key, prof: prof})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.byKey, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
}

// Simulate runs the program on the chip with memoization: a hit returns
// a deep copy of the cached profile; a miss simulates, caches a private
// copy and returns the freshly computed profile. Errors are never
// cached. The result is always the caller's to mutate.
//
// When a disk cache is configured (SetDiskCacheDir), a memory miss
// consults it before simulating, and a simulated result is persisted so
// later processes warm-start.
func (c *Cache) Simulate(chip *hw.Chip, prog *isa.Program, opts sim.Options) (*profile.Profile, error) {
	key, ok := cacheKey(chip, prog, opts)
	if !ok {
		return sim.RunOpts(chip, prog, opts)
	}
	if p := c.lookup(key); p != nil {
		return p, nil
	}
	d := diskCache.Load()
	if d != nil {
		if p := d.load(key); p != nil {
			c.insert(key, p.Clone())
			return p, nil
		}
	}
	p, err := sim.RunOpts(chip, prog, opts)
	if err != nil {
		return nil, err
	}
	c.insert(key, p.Clone())
	if d != nil {
		d.store(key, p)
	}
	return p, nil
}

// defaultCache is the process-wide cache consulted by Simulate. It
// starts enabled at DefaultCacheCapacity; SetCacheCapacity(0) disables
// it.
var defaultCache atomic.Pointer[Cache]

func init() {
	defaultCache.Store(NewCache(DefaultCacheCapacity))
}

// DefaultCache returns the process-default cache, or nil when caching
// is disabled.
func DefaultCache() *Cache {
	return defaultCache.Load()
}

// SetCacheCapacity replaces the process-default cache with a fresh one
// bounded to n entries; n <= 0 disables caching. Command line tools
// wire their -cache flag here. Counters reset with the replacement.
func SetCacheCapacity(n int) {
	if n <= 0 {
		defaultCache.Store(nil)
		return
	}
	defaultCache.Store(NewCache(n))
}

// Simulate is the shared simulate entry point of the hot paths: it runs
// the program through the process-default cache, or directly when
// caching is disabled. Cached or not, the returned profile is always
// private to the caller and the bytes are identical to an uncached
// sim.RunOpts (the simulator is deterministic).
func Simulate(chip *hw.Chip, prog *isa.Program, opts sim.Options) (*profile.Profile, error) {
	c := defaultCache.Load()
	if c != nil {
		return c.Simulate(chip, prog, opts)
	}
	// Memory cache disabled: the disk layer (if configured) still
	// applies, so CLI runs with -cache 0 keep their warm start.
	d := diskCache.Load()
	if d == nil {
		return sim.RunOpts(chip, prog, opts)
	}
	key, ok := cacheKey(chip, prog, opts)
	if !ok {
		return sim.RunOpts(chip, prog, opts)
	}
	if p := d.load(key); p != nil {
		return p, nil
	}
	p, err := sim.RunOpts(chip, prog, opts)
	if err != nil {
		return nil, err
	}
	d.store(key, p)
	return p, nil
}
