// Package engine is the concurrent execution substrate of the repository:
// a bounded worker pool with deterministic result ordering (Pool, Map),
// an admission limiter (Limiter), and the one single-flight memoization
// cache (Cache) that lets parallel jobs and requests share expensive
// artifacts — decks, partitions, calibrated models, rendered responses —
// instead of recomputing them. Cache is unbounded as a zero value and
// least-recently-used bounded from NewCache; in both forms it never
// caches an error.
//
// The design contract, relied on by internal/experiments and pkg/krak, is
// that running a batch of jobs through Map produces results that are
// byte-for-byte identical to running the same jobs serially: results come
// back in submission order, every job computes exactly the same values it
// would compute alone (jobs share artifacts only through Cache, whose
// single-flight discipline guarantees one successful computation per
// key), and the first failure — by submission order, matching where a
// serial loop would have stopped — is the error reported.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Pool bounds how many jobs run concurrently. The zero value and nil
// both behave serially; use New to size one from the hardware.
//
// The bound is a shared token budget, not a set of long-lived goroutines:
// the goroutine calling Map always works through jobs itself, and helper
// goroutines join only while spare tokens exist. A nested Map (a batch
// job that itself fans out rows) therefore borrows only idle capacity —
// it can never deadlock on the pool and never multiplies concurrency.
// Within one call tree the bound is exactly Workers(); each additional
// goroutine independently calling Map on the same pool contributes its
// own calling goroutine on top of the shared helper budget.
type Pool struct {
	workers int
	// tokens has capacity workers-1: the Map caller's goroutine is the
	// implicit first worker, and each helper holds one token while it
	// runs.
	tokens chan struct{}
}

// New returns a pool running at most n jobs at once. n <= 0 selects
// runtime.GOMAXPROCS(0), i.e. "as wide as the hardware allows".
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n, tokens: make(chan struct{}, n-1)}
}

// Serial returns a pool that runs jobs one at a time in submission order —
// the exact execution the pre-engine code performed.
func Serial() *Pool { return New(1) }

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return 1
	}
	return p.workers
}

// Map evaluates fn(ctx, i) for every i in [0, n) on the pool and returns
// the results in index order. It is the engine's only scheduling
// primitive.
//
// Semantics:
//
//   - Deterministic ordering: results[i] is fn's value for index i,
//     regardless of completion order.
//   - Fail-fast: the first error cancels the context passed to in-flight
//     jobs and stops unstarted ones. The error returned is the failing
//     job with the lowest index (what a serial loop would have hit
//     first), never a secondary cancellation error it provoked.
//   - Cancellation: if ctx is cancelled externally, Map drains its
//     workers and returns ctx.Err().
//   - Bounded: the calling goroutine works through jobs itself and
//     helper goroutines spawn only while the pool has spare tokens, so a
//     call tree — however deeply its jobs nest further Maps — never
//     exceeds Workers() jobs in flight (see the Pool doc for the
//     sibling-caller accounting).
//
// A serial pool (Workers() == 1) runs everything inline on the calling
// goroutine with no channels, so the serial path is also the natural
// baseline for benchmarks.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	w := p.Workers()
	if w > n {
		w = n
	}

	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	work := func() {
		for i := range idx {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			v, err := fn(ctx, i)
			if err != nil {
				errs[i] = err
				cancel()
				continue
			}
			results[i] = v
		}
	}
	// Recruit up to w-1 helpers, but only while the shared pool has spare
	// tokens; under nesting or concurrent Maps the spare capacity may be
	// zero and the batch simply runs on the calling goroutine.
	var wg sync.WaitGroup
	for k := 0; k < w-1; k++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.tokens
					wg.Done()
				}()
				work()
			}()
		default:
		}
	}
	work() // the caller is always the first worker
	wg.Wait()

	// Report the lowest-index genuine failure; cancellation errors are
	// either fallout from it or an external cancel.
	var cancelErr error
	for i := 0; i < n; i++ {
		err := errs[i]
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return nil, err
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	return results, ctx.Err()
}
