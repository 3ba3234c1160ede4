package cache

import (
	"container/list"
	"sync"
)

// LRU is a size-bounded, thread-safe least-recently-used map from
// fingerprint to cached value. It is deliberately value-agnostic (the
// serve layer stores solution entries, sessions store commit results).
// Callers count outcomes in their own instruments: Get reports a hit,
// Put an eviction.
type LRU struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

// NewLRU returns an LRU bounded to max entries. max must be positive;
// callers gate "cache disabled" before construction.
func NewLRU(max int) *LRU {
	if max <= 0 {
		max = 1
	}
	return &LRU{
		max:   max,
		order: list.New(),
		items: make(map[string]*list.Element, max),
	}
}

// Get returns the value cached under key, marking it most recently
// used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put stores val under key, evicting the least recently used entry if
// the cache is full. It reports whether an eviction happened.
func (c *LRU) Put(key string, val any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return false
	}
	evicted := false
	if c.order.Len() >= c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		evicted = true
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	return evicted
}

// Len returns the current entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
