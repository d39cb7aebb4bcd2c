package gateway

import (
	"fmt"
	"net/url"
	"strings"
	"time"
)

// Config sizes a Gateway. Build one with DefaultConfig and override;
// Validate before use.
type Config struct {
	// Replicas are the base URLs of the krak serve processes behind the
	// gateway ("http://127.0.0.1:8081"). Order does not matter: routing
	// hashes replica URLs onto the ring, so the assignment is stable
	// under list reordering.
	Replicas []string

	// ProbeInterval is the health-check cadence per replica;
	// ProbeTimeout bounds each GET /healthz probe.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// Retries bounds additional attempts (beyond the first) for an
	// idempotent request, across failover replicas. Default 3.
	Retries int

	// RetryBase and RetryCap shape the exponential backoff between
	// attempts: attempt n sleeps a uniformly jittered duration in
	// [0, min(RetryBase·2ⁿ, RetryCap)) — full jitter, so synchronized
	// clients spread out instead of retrying in lockstep.
	RetryBase time.Duration
	RetryCap  time.Duration

	// BreakerThreshold consecutive failures open a replica's circuit
	// breaker; BreakerCooldown is how long it stays open before a
	// half-open probe may test the replica again.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Quick applies the serving tier's -quick to the gateway's own view
	// of each request (its canonical routing keys). Set it exactly when
	// the replicas run -quick, or keys will not match the bodies the
	// replicas cache.
	Quick bool
}

// DefaultConfig returns the gateway defaults (no replicas).
func DefaultConfig() Config {
	return Config{
		ProbeInterval:    2 * time.Second,
		ProbeTimeout:     time.Second,
		Retries:          3,
		RetryBase:        25 * time.Millisecond,
		RetryCap:         time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  10 * time.Second,
	}
}

// Bounds Validate enforces. A gateway fronts at most a few dozen
// replicas.
const (
	maxReplicas     = 64
	maxRetries      = 10
	maxBreakerFails = 1000
	maxDuration     = time.Minute
)

// virtualNodes is how many ring points each replica owns; more points
// smooth the key distribution. jitterSeed drives the retry jitter:
// routing and breaker behavior are seed-independent, only sleep
// durations vary.
const (
	virtualNodes = 64
	jitterSeed   = 1
)

// normalizeReplica is the one spelling of a replica URL the gateway
// checks for duplicates, hashes onto the ring and proxies to: scheme and
// host in lower case, no trailing slash, so "http://h:1", "http://h:1/"
// and "HTTP://H:1" name one replica. A URL that does not parse is
// returned as is, for Validate to reject.
func normalizeReplica(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return raw
	}
	u.Host = strings.ToLower(u.Host)
	u.Path = strings.TrimRight(u.Path, "/")
	return u.String()
}

// Validate checks the config is runnable: at least one replica, every
// replica a well-formed absolute http(s) URL named once (compared after
// normalizeReplica), and bounds on every other field.
func (cfg Config) Validate() error {
	if len(cfg.Replicas) == 0 {
		return fmt.Errorf("gateway: no replicas configured")
	}
	if len(cfg.Replicas) > maxReplicas {
		return fmt.Errorf("gateway: more than %d replicas", maxReplicas)
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, r := range cfg.Replicas {
		u, err := url.Parse(r)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("gateway: bad replica URL %q", r)
		}
		n := normalizeReplica(r)
		if seen[n] {
			return fmt.Errorf("gateway: duplicate replica %q", r)
		}
		seen[n] = true
	}
	if cfg.Retries < 0 || cfg.Retries > maxRetries {
		return fmt.Errorf("gateway: retries %d out of range 0..%d", cfg.Retries, maxRetries)
	}
	if cfg.BreakerThreshold < 1 || cfg.BreakerThreshold > maxBreakerFails {
		return fmt.Errorf("gateway: breaker-threshold %d out of range 1..%d", cfg.BreakerThreshold, maxBreakerFails)
	}
	for _, d := range []time.Duration{cfg.ProbeInterval, cfg.ProbeTimeout, cfg.RetryBase, cfg.RetryCap, cfg.BreakerCooldown} {
		if d <= 0 || d > maxDuration {
			return fmt.Errorf("gateway: duration %v out of range (0, %v]", d, maxDuration)
		}
	}
	return nil
}
