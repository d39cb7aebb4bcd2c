package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleFlight checks that concurrent Dos for one key run the
// fill exactly once and all observe its value.
func TestCacheSingleFlight(t *testing.T) {
	var c Cache[string, int]
	var fills atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	const goroutines = 32
	vals := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := c.Do("deck/medium", func() (int, error) {
				fills.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[g] = v
		}()
	}
	close(start)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	for g, v := range vals {
		if v != 42 {
			t.Fatalf("goroutine %d saw %d, want 42", g, v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

// TestCacheDistinctKeysConcurrent checks that different keys do not
// serialize behind one another.
func TestCacheDistinctKeysConcurrent(t *testing.T) {
	var c Cache[int, int]
	const keys = 16
	gate := make(chan struct{})
	var inFlight atomic.Int32
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = c.Do(k, func() (int, error) {
				// Every key's fill blocks until all fills have started;
				// this deadlocks if the cache holds its lock while filling.
				if inFlight.Add(1) == keys {
					close(gate)
				}
				<-gate
				return k, nil
			})
		}()
	}
	wg.Wait()
	if c.Len() != keys {
		t.Fatalf("Len() = %d, want %d", c.Len(), keys)
	}
}

// TestCacheErrorsNotCached checks a failed fill is returned but not
// kept: the key is dropped and the next Do fills again.
func TestCacheErrorsNotCached(t *testing.T) {
	var c Cache[string, int]
	boom := errors.New("boom")
	calls := 0
	if _, o, err := c.Do("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) || o != Miss {
		t.Fatalf("failed fill: outcome %v err %v", o, err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed fill cached: len=%d", c.Len())
	}
	v, o, err := c.Do("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 || o != Miss {
		t.Fatalf("retry: v=%d outcome=%v err=%v", v, o, err)
	}
	if calls != 2 {
		t.Fatalf("calls=%d, want 2", calls)
	}
}

// TestCachePanicPropagatesAndUnpins checks a panicking fill panics in the
// caller that ran it, wakes the coalesced waiters with an error instead
// of stranding them, and leaves the key free for a fresh fill.
func TestCachePanicPropagatesAndUnpins(t *testing.T) {
	var c Cache[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started

	waiter := make(chan error)
	go func() {
		_, o, err := c.Do("k", func() (int, error) {
			t.Error("waiter ran the fill")
			return 0, nil
		})
		if o != Coalesced {
			t.Errorf("waiter outcome %v, want coalesced", o)
		}
		waiter <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter block on the fill
	close(release)

	if r := <-panicked; r != "kaboom" {
		t.Fatalf("filler recovered %v, want the fill's panic", r)
	}
	if err := <-waiter; err == nil {
		t.Fatal("coalesced waiter got no error from a panicked fill")
	}
	v, o, err := c.Do("k", func() (int, error) { return 1, nil })
	if err != nil || v != 1 || o != Miss {
		t.Fatalf("after panic: v=%d outcome=%v err=%v", v, o, err)
	}
}

// TestLRUHitMissEvict checks the bounded (LRU) form: at most n filled
// entries, a hit refreshing an entry's recency without refilling it.
func TestLRUHitMissEvict(t *testing.T) {
	c := NewCache[int, string](2)
	if c.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", c.Cap())
	}
	fills := 0
	do := func(k int) Outcome {
		v, o, err := c.Do(k, func() (string, error) {
			fills++
			return fmt.Sprintf("v%d", k), nil
		})
		if err != nil || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("Do(%d) = %q, %v", k, v, err)
		}
		return o
	}
	for _, step := range []struct {
		key  int
		want Outcome
	}{
		{1, Miss}, {2, Miss},
		{1, Hit},            // 1 is now the most recently used
		{3, Miss},           // evicts 2
		{1, Hit}, {2, Miss}, // 2 was evicted; refilling it evicts 3
		{3, Miss},
	} {
		if got := do(step.key); got != step.want {
			t.Fatalf("Do(%d) outcome %v, want %v", step.key, got, step.want)
		}
		if c.Len() > 2 {
			t.Fatalf("len=%d exceeds the bound", c.Len())
		}
	}
	if fills != 5 {
		t.Fatalf("fills=%d, want 5 (hits must not refill)", fills)
	}
}

// TestLRUSingleFlight checks concurrent Dos for one key on the bounded
// form share a single computation and all observe its value.
func TestLRUSingleFlight(t *testing.T) {
	c := NewCache[string, int](4)
	var fills atomic.Int32
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", func() (int, error) {
				fills.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("fills=%d, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d", i, v)
		}
	}
}

// TestLRUZeroCapacityClamped checks NewCache never builds an unbounded
// cache by accident: a bound below 1 is clamped to 1.
func TestLRUZeroCapacityClamped(t *testing.T) {
	c := NewCache[int, int](0)
	if c.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", c.Cap())
	}
	c.Do(1, func() (int, error) { return 1, nil })
	c.Do(2, func() (int, error) { return 2, nil })
	if c.Len() != 1 {
		t.Fatalf("len=%d, want 1", c.Len())
	}
}

// TestLRUOutcomes pins the three-way hit/miss/coalesced classification:
// the first Do for a key is a miss, callers that join its in-flight fill
// are coalesced (not hits — they waited on a fresh computation), and only
// a Do against the filled entry is a hit. This is the regression test for
// the serving layer's hit-rate miscount, at the primitive level.
func TestLRUOutcomes(t *testing.T) {
	c := NewCache[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})

	var mu sync.Mutex
	counts := map[Outcome]int{}
	record := func(o Outcome) {
		mu.Lock()
		counts[o]++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, o, err := c.Do("k", func() (int, error) {
			close(started) // entry is registered; coalescers are now guaranteed
			<-release
			return 42, nil
		})
		if err != nil {
			t.Error(err)
		}
		record(o)
	}()
	<-started

	const coalescers = 3
	var arrived sync.WaitGroup
	for i := 0; i < coalescers; i++ {
		wg.Add(1)
		arrived.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done() // next instruction is Do; the fill is still blocked
			_, o, err := c.Do("k", func() (int, error) {
				t.Error("coalescer ran the fill")
				return 0, nil
			})
			if err != nil {
				t.Error(err)
			}
			record(o)
		}()
	}
	// The fill cannot complete before release, so every coalescer that
	// reaches Do first is guaranteed the in-flight path; arrived.Wait plus
	// a settle window puts them there before the release.
	arrived.Wait()
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	_, o, err := c.Do("k", func() (int, error) {
		t.Error("hit ran the fill")
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	record(o)

	if counts[Miss] != 1 || counts[Coalesced] != coalescers || counts[Hit] != 1 {
		t.Fatalf("outcomes miss=%d coalesced=%d hit=%d, want 1/%d/1",
			counts[Miss], counts[Coalesced], counts[Hit], coalescers)
	}
}

func TestLRUOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Miss: "miss", Hit: "hit", Coalesced: "coalesced", Outcome(99): "unknown"} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

// TestCacheZeroValue checks a zero-value cache inside a struct literal
// works and is unbounded, as experiments.Env and artifacts.Store require.
func TestCacheZeroValue(t *testing.T) {
	type holder struct {
		c Cache[string, string]
	}
	h := &holder{}
	v, o, err := h.c.Do("x", func() (string, error) { return "y", nil })
	if err != nil || v != "y" || o != Miss {
		t.Fatalf("Do = %q, %v, %v; want y, miss, nil", v, o, err)
	}
	if h.c.Cap() != 0 {
		t.Fatalf("zero value Cap = %d, want 0 (unbounded)", h.c.Cap())
	}
	for k := 0; k < 8; k++ {
		h.c.Do(fmt.Sprint(k), func() (string, error) { return "v", nil })
	}
	if h.c.Len() != 9 {
		t.Fatalf("zero value len=%d, want 9 (nothing evicted)", h.c.Len())
	}
}

func TestGetBoundedRefusesNewKeysAtCap(t *testing.T) {
	var c Cache[int, int]
	for i := 0; i < 4; i++ {
		if _, _, err := c.GetBounded(i, 4, func() (int, error) { return i, nil }); err != nil {
			t.Fatalf("key %d under cap: %v", i, err)
		}
	}
	if _, _, err := c.GetBounded(99, 4, func() (int, error) { return 0, nil }); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("new key at cap: %v, want ErrCacheFull", err)
	}
	// Known keys keep serving at the cap, without refilling.
	v, o, err := c.GetBounded(2, 4, func() (int, error) {
		t.Error("known key refilled")
		return -1, nil
	})
	if err != nil || v != 2 || o != Hit {
		t.Fatalf("known key at cap: v=%d outcome=%v err=%v", v, o, err)
	}
	// A failed fill frees its slot: the key is not held afterwards.
	var f Cache[int, int]
	for i := 0; i < 8; i++ {
		if _, _, err := f.GetBounded(i, 4, func() (int, error) { return 0, errors.New("invalid") }); errors.Is(err, ErrCacheFull) {
			t.Fatalf("failed fill %d consumed the limit", i)
		}
	}
	// limit <= 0 is no limit.
	if _, _, err := c.GetBounded(99, 0, func() (int, error) { return 99, nil }); err != nil {
		t.Fatalf("unbounded: %v", err)
	}
}

// TestGetBoundedConcurrentCap is the TOCTOU regression test at the
// primitive level: a burst of first-time requests for distinct new keys,
// far more than the cap, must never push the cache past it — the check
// and the slot reservation are one atomic step, not a Len() peek
// followed by a separate Do.
func TestGetBoundedConcurrentCap(t *testing.T) {
	const (
		cap     = 16
		hammers = 128
	)
	var c Cache[string, int]
	var admitted, refused atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < hammers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, _, err := c.GetBounded(fmt.Sprintf("key-%d", i), cap, func() (int, error) { return i, nil })
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrCacheFull):
				refused.Add(1)
			default:
				t.Errorf("key %d: unexpected error %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if got := c.Len(); got > cap {
		t.Fatalf("cache overshot the cap: len=%d > %d", got, cap)
	}
	if admitted.Load() != cap || refused.Load() != hammers-cap {
		t.Fatalf("admitted=%d refused=%d, want %d/%d", admitted.Load(), refused.Load(), cap, hammers-cap)
	}
}

// TestCacheGetAdd pins the pair a caller uses when it decides outside
// the cache whether a value may be kept: Get never fills and reports
// only filled keys, Add never replaces a held value, and both share the
// LRU order and bound with Do.
func TestCacheGetAdd(t *testing.T) {
	c := NewCache[string, int](2)
	if v, ok := c.Get("a"); ok {
		t.Fatalf("Get on an empty cache = %d, true", v)
	}
	c.Add("a", 1)
	c.Add("a", 2) // a key's value never changes once known
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	c.Add("b", 2)
	c.Get("a") // a is now the most recently used
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived an Add past the bound though a was used after it")
	}
	if v, _, _ := c.Do("a", func() (int, error) { return 9, nil }); v != 1 {
		t.Fatalf("Do after Add refilled a: %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}

	// A key still filling is neither reported by Get nor taken by Add.
	release := make(chan struct{})
	filling := make(chan struct{})
	done := make(chan int)
	go func() {
		v, _, _ := c.Do("d", func() (int, error) {
			close(filling)
			<-release
			return 4, nil
		})
		done <- v
	}()
	<-filling
	if _, ok := c.Get("d"); ok {
		t.Fatal("Get reported a key whose fill is in flight")
	}
	c.Add("d", 40)
	close(release)
	if v := <-done; v != 4 {
		t.Fatalf("fill returned %d, want 4", v)
	}
	if v, ok := c.Get("d"); !ok || v != 4 {
		t.Fatalf("Get(d) = %d, %v; want the fill's 4, true", v, ok)
	}
}

// TestCacheGetAddConcurrent runs Get and Add for overlapping keys from
// several goroutines, for the race detector, and checks the bound and
// that each key keeps the one value ever added for it.
func TestCacheGetAddConcurrent(t *testing.T) {
	c := NewCache[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % 16
				if v, ok := c.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*k)
				}
				c.Add(k, k*k)
			}
		}()
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("Len = %d past the bound 8", c.Len())
	}
}
