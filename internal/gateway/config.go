package gateway

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Config sizes a Gateway. Build one with DefaultConfig and override, or
// parse a textual file with ParseGatewayConfig; Validate before use.
type Config struct {
	// Replicas are the base URLs of the krak serve processes behind the
	// gateway ("http://127.0.0.1:8081"). Order does not matter: routing
	// hashes replica URLs onto the ring, so the assignment is stable
	// under list reordering.
	Replicas []string

	// VirtualNodes is how many ring points each replica owns; more
	// points smooth the key distribution. Default 64.
	VirtualNodes int

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

	// Seed drives the retry jitter; 0 means 1. Routing and breaker
	// behavior are seed-independent — only sleep durations vary.
	Seed uint64

	// Quick applies the serving tier's -quick to the gateway's own view
	// of each request (its canonical routing keys). Set it exactly when
	// the replicas run -quick, or keys will not match the bodies the
	// replicas cache.
	Quick bool
}

// DefaultConfig returns the gateway defaults (no replicas).
func DefaultConfig() Config {
	return Config{
		VirtualNodes:     64,
		ProbeInterval:    2 * time.Second,
		ProbeTimeout:     time.Second,
		Retries:          3,
		RetryBase:        25 * time.Millisecond,
		RetryCap:         time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  10 * time.Second,
		Seed:             1,
	}
}

// Parse bounds. A gateway fronts at most a few dozen replicas; anything
// larger is rejected before allocation.
const (
	maxConfigBytes  = 1 << 16
	maxConfigLines  = 256
	maxReplicas     = 64
	maxVirtualNodes = 512
	maxRetries      = 10
	maxBreakerFails = 1000
	maxDuration     = time.Minute
)

// ParseGatewayConfig parses the bounded textual gateway config:
//
//	replica http://127.0.0.1:8081   # repeatable, 1..64
//	virtual-nodes 64                # ring points per replica (1..512)
//	probe-interval 2s               # health-check cadence
//	probe-timeout 1s                # per-probe bound
//	retries 3                       # extra attempts per idempotent request
//	retry-base 25ms                 # backoff base
//	retry-cap 1s                    # backoff ceiling
//	breaker-threshold 5             # consecutive failures that open a breaker
//	breaker-cooldown 10s            # open time before a half-open probe
//	seed 1                          # retry-jitter seed
//	quick true                      # replicas run -quick
//
// Directive-per-line, '#' comments, blank lines ignored. Unset
// directives keep their DefaultConfig values. The result still needs
// Validate (a config with zero replicas parses but does not validate).
func ParseGatewayConfig(src []byte) (Config, error) {
	cfg := DefaultConfig()
	if len(src) > maxConfigBytes {
		return cfg, fmt.Errorf("gateway: config exceeds %d bytes", maxConfigBytes)
	}
	lines := strings.Split(string(src), "\n")
	if len(lines) > maxConfigLines {
		return cfg, fmt.Errorf("gateway: config exceeds %d lines", maxConfigLines)
	}
	for i, line := range lines {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		lineErr := func(format string, args ...any) error {
			return fmt.Errorf("gateway: line %d: %s", i+1, fmt.Sprintf(format, args...))
		}
		if len(fields) != 2 {
			return cfg, lineErr("want `directive value`")
		}
		dir, val := fields[0], fields[1]
		switch dir {
		case "replica":
			if len(cfg.Replicas) >= maxReplicas {
				return cfg, lineErr("more than %d replicas", maxReplicas)
			}
			cfg.Replicas = append(cfg.Replicas, val)
		case "virtual-nodes":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > maxVirtualNodes {
				return cfg, lineErr("bad virtual-nodes %q (want 1..%d)", val, maxVirtualNodes)
			}
			cfg.VirtualNodes = n
		case "probe-interval":
			if err := parseBoundedDuration(val, &cfg.ProbeInterval); err != nil {
				return cfg, lineErr("%v", err)
			}
		case "probe-timeout":
			if err := parseBoundedDuration(val, &cfg.ProbeTimeout); err != nil {
				return cfg, lineErr("%v", err)
			}
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 || n > maxRetries {
				return cfg, lineErr("bad retries %q (want 0..%d)", val, maxRetries)
			}
			cfg.Retries = n
		case "retry-base":
			if err := parseBoundedDuration(val, &cfg.RetryBase); err != nil {
				return cfg, lineErr("%v", err)
			}
		case "retry-cap":
			if err := parseBoundedDuration(val, &cfg.RetryCap); err != nil {
				return cfg, lineErr("%v", err)
			}
		case "breaker-threshold":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > maxBreakerFails {
				return cfg, lineErr("bad breaker-threshold %q (want 1..%d)", val, maxBreakerFails)
			}
			cfg.BreakerThreshold = n
		case "breaker-cooldown":
			if err := parseBoundedDuration(val, &cfg.BreakerCooldown); err != nil {
				return cfg, lineErr("%v", err)
			}
		case "seed":
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil || seed == 0 {
				return cfg, lineErr("bad seed %q (want a positive integer)", val)
			}
			cfg.Seed = seed
		case "quick":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return cfg, lineErr("bad quick %q (want a boolean)", val)
			}
			cfg.Quick = b
		default:
			return cfg, lineErr("unknown directive %q", dir)
		}
	}
	return cfg, nil
}

// parseBoundedDuration parses a positive duration capped at a minute —
// every gateway timing knob lives well under it.
func parseBoundedDuration(val string, dst *time.Duration) error {
	d, err := time.ParseDuration(val)
	if err != nil || d <= 0 || d > maxDuration {
		return fmt.Errorf("bad duration %q (want 0 < d <= %v)", val, maxDuration)
	}
	*dst = d
	return nil
}

// Validate checks the config is runnable: at least one replica, every
// replica a well-formed absolute http(s) URL, and bounds on everything
// a flag could have set directly (the parser enforces the same ones).
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
		if seen[r] {
			return fmt.Errorf("gateway: duplicate replica %q", r)
		}
		seen[r] = true
	}
	if cfg.VirtualNodes < 1 || cfg.VirtualNodes > maxVirtualNodes {
		return fmt.Errorf("gateway: virtual-nodes %d out of range 1..%d", cfg.VirtualNodes, maxVirtualNodes)
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
