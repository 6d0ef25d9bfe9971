package hw

import "sync"

// ChipMemo memoizes a value derived from a chip, keyed by the chip
// pointer; it relies on the Chip contract of immutability after
// construction. Lookups are lock-free. It holds at most a fixed number
// of chips: a Store that finds it full clears it and starts over, so
// callers that mint a fresh chip per call (multicore's per-core
// derivations) can neither grow it without limit nor lock later chips
// out of it. Held keys keep their chips alive, so a memoized pointer
// is never reused by a different chip. It is safe for concurrent use.
type ChipMemo[V any] struct {
	bound int

	m  sync.Map // *Chip -> V
	mu sync.Mutex
	n  int // entries in m; guarded by mu
}

// NewChipMemo returns an empty memo bounded to bound chips.
func NewChipMemo[V any](bound int) *ChipMemo[V] {
	return &ChipMemo[V]{bound: bound}
}

// Load returns the value stored for chip, if any.
func (c *ChipMemo[V]) Load(chip *Chip) (V, bool) {
	v, ok := c.m.Load(chip)
	if !ok {
		var zero V
		return zero, false
	}
	return v.(V), true
}

// Store records v for chip unless a value is already stored.
func (c *ChipMemo[V]) Store(chip *Chip, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m.Load(chip); ok {
		return
	}
	if c.n >= c.bound {
		c.m.Clear()
		c.n = 0
	}
	c.m.Store(chip, v)
	c.n++
}

// Len returns the number of chips held.
func (c *ChipMemo[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
