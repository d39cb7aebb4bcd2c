package engine

import (
	"container/list"
	"errors"
	"sync"
)

// Cache is the repository's single-flight memoization map. The first Do
// for a key runs fill while concurrent Dos for the same key wait for it
// and share its outcome; distinct keys fill concurrently, and nothing
// holds the map lock while filling.
//
// The policy is the same for every cache in the repo, from the artifact
// store to the server's rendered responses:
//
//   - Errors are never cached: a failed fill is returned to its caller and
//     to every coalesced waiter, then its key is dropped so the next Do
//     retries. One transient failure must not poison a key.
//   - A panicking fill propagates its panic to the caller that ran it;
//     coalesced waiters receive an error and the key is dropped.
//   - The zero value is ready to use and unbounded, so a Cache can sit
//     directly inside a struct literal. NewCache(n) builds the bounded
//     (LRU) form, which keeps at most n filled entries and evicts the
//     least recently used.
//
// A Cache must not be copied after first use.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	max int // filled-entry bound; 0 means unbounded
	m   map[K]*cacheEntry[K, V]
	ll  list.List // filled entries, most recently used at the front
}

type cacheEntry[K comparable, V any] struct {
	key  K
	done chan struct{} // closed when the fill completes
	val  V
	err  error
	elem *list.Element // nil while the fill is in flight
}

// Outcome classifies how a Do call was served. A serving layer that
// reports a hit rate needs the three-way distinction: a caller coalesced
// onto an in-flight fill waited on a fresh computation and must not be
// counted as a hit, but it did not run a computation of its own either.
type Outcome int

const (
	// Miss: this call ran the fill.
	Miss Outcome = iota
	// Hit: the value was already cached; nothing was computed.
	Hit
	// Coalesced: another call's in-flight fill was joined and its
	// outcome shared.
	Coalesced
)

// String names the outcome for counters and logs.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// ErrCacheFull is returned by GetBounded when the cache already holds its
// limit of keys and the requested key is not among them.
var ErrCacheFull = errors.New("engine: cache at capacity")

// errFillPanicked is what waiters coalesced onto a panicking fill receive.
var errFillPanicked = errors.New("engine: cache fill panicked")

// NewCache returns a cache holding at most n filled entries, evicting the
// least recently used beyond that. n is clamped to at least 1, so the
// bounded form is always bounded; use the zero value for an unbounded
// cache.
func NewCache[K comparable, V any](n int) *Cache[K, V] {
	return &Cache[K, V]{max: max(n, 1)}
}

// Cap reports the filled-entry bound (0 for an unbounded cache).
func (c *Cache[K, V]) Cap() int { return c.max }

// Len reports how many filled entries the cache holds; in-flight fills
// are not counted.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Do returns the value for key, running fill on a miss, and reports how
// the call was served: Hit for a filled entry, Miss when this call ran
// fill, Coalesced when it joined another call's in-flight fill.
func (c *Cache[K, V]) Do(key K, fill func() (V, error)) (V, Outcome, error) {
	return c.GetBounded(key, 0, fill)
}

// GetBounded is Do with an atomic refusal at a limit: when limit > 0 and
// the cache already holds limit keys (filled or in flight), a new key
// returns ErrCacheFull without filling anything, while held keys keep
// serving. The check and the slot reservation happen under one lock
// acquisition, so a burst of distinct new keys cannot all pass a
// "len < limit" check and overshoot it. limit <= 0 means no limit.
func (c *Cache[K, V]) GetBounded(key K, limit int, fill func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		if e.elem != nil {
			c.ll.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.val, Hit, nil
		}
		c.mu.Unlock()
		<-e.done
		return e.val, Coalesced, e.err
	}
	if limit > 0 && len(c.m) >= limit {
		c.mu.Unlock()
		var zero V
		return zero, Miss, ErrCacheFull
	}
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[K, V])
	}
	e := &cacheEntry[K, V]{key: key, done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	finished := false
	defer func() {
		if !finished { // fill panicked: wake the waiters, let the panic go on
			e.err = errFillPanicked
			c.finish(e)
		}
	}()
	e.val, e.err = fill()
	finished = true
	c.finish(e)
	return e.val, Miss, e.err
}

// Get returns the filled value for key and marks it most recently used.
// It never fills: a key that is absent or still filling reports false.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && e.elem != nil {
		c.ll.MoveToFront(e.elem)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Add stores val as key's filled entry, evicting beyond the bound, for a
// caller that decides outside the cache whether a value may be kept. A
// key already held, filled or filling, keeps what it holds: Add is for
// keys whose value never changes once known.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[K, V])
	}
	e := &cacheEntry[K, V]{key: key, val: val}
	c.m[key] = e
	c.pushLocked(e)
}

// finish publishes a completed fill: a success enters the LRU order
// (evicting beyond the bound), a failure drops its key so the next call
// retries. Either way the waiters are released.
func (c *Cache[K, V]) finish(e *cacheEntry[K, V]) {
	c.mu.Lock()
	if e.err != nil {
		delete(c.m, e.key)
	} else {
		c.pushLocked(e)
	}
	c.mu.Unlock()
	close(e.done)
}

// pushLocked enters a filled entry at the front of the LRU order and
// evicts the least recently used beyond the bound. c.mu must be held.
func (c *Cache[K, V]) pushLocked(e *cacheEntry[K, V]) {
	e.elem = c.ll.PushFront(e)
	for c.max > 0 && c.ll.Len() > c.max {
		oldest := c.ll.Remove(c.ll.Back()).(*cacheEntry[K, V])
		delete(c.m, oldest.key)
	}
}
