package server

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"

	"krak/internal/engine"
)

// Admission control: every endpoint belongs to a class, and each class
// has a concurrency limiter with a bounded wait queue. Cheap cached
// reads (predict, simulate, experiments, machines) share the light
// class and a generous limit; sweep, compare, and calibrate — the
// endpoints that can occupy the worker pool for seconds — share the
// heavy class and a tight one. A caller who finds both the slots and the
// queue full is refused immediately with 429 and a Retry-After, which
// under overload is strictly kinder than accepting work the pool cannot
// start: the client learns to back off while queued requests still in
// budget keep their latency. /healthz and /metrics are never limited —
// observability must work best exactly when the server is saturated.

// Endpoint classes.
const (
	classLight = "light"
	classHeavy = "heavy"
)

// admission holds the per-class limiters and refusal counters.
type admission struct {
	light, heavy *engine.Limiter

	rejectedLight atomic.Int64
	rejectedHeavy atomic.Int64
}

func newAdmission(cfg Config) *admission {
	return &admission{
		light: newClassLimiter(cfg.LightLimit, cfg.LightQueue, defaultLightLimit, defaultLightQueue),
		heavy: newClassLimiter(cfg.HeavyLimit, cfg.HeavyQueue, defaultHeavyLimit, defaultHeavyQueue),
	}
}

// Admission defaults: light admits enough concurrency that cache-hit
// traffic never queues in practice, heavy matches the handful of
// pool-occupying computations worth running at once.
const (
	defaultLightLimit = 256
	defaultLightQueue = 1024
	defaultHeavyLimit = 4
	defaultHeavyQueue = 16
)

// newClassLimiter resolves one class's limiter: 0 means the default,
// negative disables limiting for the class (nil limiter).
func newClassLimiter(limit, queue, defLimit, defQueue int) *engine.Limiter {
	if limit < 0 {
		return nil
	}
	if limit == 0 {
		limit = defLimit
	}
	if queue == 0 {
		queue = defQueue
	} else if queue < 0 {
		queue = 0
	}
	return engine.NewLimiter(limit, queue)
}

func (a *admission) limiter(class string) *engine.Limiter {
	if class == classHeavy {
		return a.heavy
	}
	return a.light
}

func (a *admission) rejected(class string) *atomic.Int64 {
	if class == classHeavy {
		return &a.rejectedHeavy
	}
	return &a.rejectedLight
}

// withAdmission wraps a route with its class's limiter: a request either
// holds a slot for the duration of its handler, waits in the bounded
// queue, or is refused with 429 and a Retry-After hint. A request whose
// context dies while queued gets 503 (the client hung up or timed out —
// retry later, nothing was computed). Heavy handlers additionally run
// under the configured per-request timeout.
func (s *Server) withAdmission(class string, h http.HandlerFunc) http.HandlerFunc {
	lim := s.admission.limiter(class)
	return func(w http.ResponseWriter, r *http.Request) {
		if err := lim.Acquire(r.Context()); err != nil {
			s.admission.rejected(class).Add(1)
			w.Header().Set("Retry-After", "1")
			status := http.StatusServiceUnavailable
			if errors.Is(err, engine.ErrSaturated) {
				status = http.StatusTooManyRequests
			}
			WriteError(w, status, err)
			return
		}
		defer lim.Release()
		if class == classHeavy && s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}
