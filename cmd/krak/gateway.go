package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"krak/internal/gateway"
)

// runGateway starts the multi-replica resilience layer: a reverse proxy
// that routes across N `krak serve` replicas by consistent hashing of
// the canonical request keys, with health probing, bounded retries,
// per-replica circuit breakers, and ring failover, answering 503 with a
// Retry-After when every replica for a key is down. A predict or
// simulate question a replica already answered from its own cache is
// kept (at most 1024 bodies) and answered again without a forward, so
// restart the gateway with its fleet when the replicas' build changes.
// Replicas come from repeated/comma-separated -replica flags.
func runGateway(args []string) error {
	fs := flag.NewFlagSet("krak gateway", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	var replicaFlags stringList
	fs.Var(&replicaFlags, "replica", "replica base URL (repeatable, or comma-separated)")
	quick := fs.Bool("quick", false, "replicas run -quick: set exactly when they do, since routing and the response cache key by it")
	retries := fs.Int("retries", -1, "extra attempts per idempotent request (-1 = default)")
	probeInterval := fs.Duration("probe-interval", 0, "health-check cadence per replica (0 = default)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that open a replica's breaker (0 = default)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open time before a half-open probe (0 = default)")
	faultPlan := fs.String("fault-plan", "", "client-side fault-injection plan for chaos drills (requires -allow-faults)")
	allowFaults := fs.Bool("allow-faults", false, "acknowledge that -fault-plan deliberately breaks responses")
	fs.Parse(args)

	cfg := gateway.DefaultConfig()
	cfg.Replicas = replicaFlags
	cfg.Quick = *quick
	if *retries >= 0 {
		cfg.Retries = *retries
	}
	if *probeInterval > 0 {
		cfg.ProbeInterval = *probeInterval
	}
	if *breakerThreshold > 0 {
		cfg.BreakerThreshold = *breakerThreshold
	}
	if *breakerCooldown > 0 {
		cfg.BreakerCooldown = *breakerCooldown
	}

	faults, err := loadFaultPlan(*faultPlan, *allowFaults)
	if err != nil {
		return err
	}
	g, err := gateway.New(cfg, faults)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	g.Start(ctx)
	// LIFO: stop cancels ctx first so Close's wait for the probe loops
	// can finish — the reverse order deadlocks every error return.
	defer g.Close()
	defer stop()

	srv := &http.Server{Addr: *addr, Handler: g}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "krak gateway listening on %s, %d replicas\n", *addr, len(cfg.Replicas))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "krak gateway: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// stringList collects a repeatable flag, splitting comma-separated
// values, so both `-replica a -replica b` and `-replica a,b` work.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			*s = append(*s, part)
		}
	}
	return nil
}
