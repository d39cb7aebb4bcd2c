package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"krak/internal/faultinject"
	"krak/internal/server"
)

// loadFaultPlan reads and parses a -fault-plan file into an Injector.
// It refuses to arm unless -allow-faults acknowledges that the plan
// deliberately breaks responses — chaos can never ship on by accident.
// An empty path is a nil (no-op) injector.
func loadFaultPlan(path string, allow bool) (*faultinject.Injector, error) {
	if path == "" {
		return nil, nil
	}
	if !allow {
		return nil, fmt.Errorf("krak: -fault-plan deliberately corrupts responses; pass -allow-faults to confirm")
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	plan, err := faultinject.ParseFaultPlan(src)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "krak: fault injection ACTIVE (plan %q, seed %d)\n", plan.Name, plan.Seed)
	return faultinject.New(plan), nil
}

// runServe starts the long-running HTTP prediction service: the serving
// subsystem of internal/server behind a net/http listener with graceful
// shutdown on SIGINT/SIGTERM.
//
// Responses are byte-identical to the corresponding CLI --json output:
// POST /v1/predict for a scenario returns exactly what
// `krak predict --json` prints for the same flags (CI's smoke job diffs
// the two on every push).
func runServe(args []string) error {
	fs := flag.NewFlagSet("krak serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	parallel := fs.Int("parallel", 0, "worker-pool width for dispatch and machines (0 = number of CPUs)")
	cacheSize := fs.Int("cache-size", 1024, "rendered-response LRU capacity (entries)")
	quick := fs.Bool("quick", false, "serve scaled-down decks and calibrations (Medium and Large become one 320x160 mesh and share every artifact; answers differ only in \"deck\")")
	cacheDir := fs.String("cache-dir", "", "directory the machine registry lives in, shared by restarts and replicas (empty = a private temporary directory, removed at shutdown); a 200 means the write is visible to every replica, not fsynced")
	lightLimit := fs.Int("light-limit", 0, "concurrent in-flight limit for cached-read endpoints (0 = default 256, -1 = unlimited)")
	lightQueue := fs.Int("light-queue", 0, "admission wait-queue depth for cached-read endpoints (0 = default 1024, -1 = no queue)")
	heavyLimit := fs.Int("heavy-limit", 0, "concurrent in-flight limit for sweep/compare/calibrate (0 = default 4, -1 = unlimited)")
	heavyQueue := fs.Int("heavy-queue", 0, "admission wait-queue depth for sweep/compare/calibrate (0 = default 16, -1 = no queue)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request timeout for heavy endpoints once admitted (0 = none)")
	faultPlan := fs.String("fault-plan", "", "fault-injection plan file for chaos drills (requires -allow-faults)")
	allowFaults := fs.Bool("allow-faults", false, "acknowledge that -fault-plan deliberately breaks responses")
	pf := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	if *parallel < 0 {
		return fmt.Errorf("krak: -parallel must be >= 0 (0 = number of CPUs), got %d", *parallel)
	}
	if *cacheSize <= 0 {
		return fmt.Errorf("krak: -cache-size must be positive, got %d", *cacheSize)
	}
	if *requestTimeout < 0 {
		return fmt.Errorf("krak: -request-timeout must be >= 0, got %v", *requestTimeout)
	}

	faults, err := loadFaultPlan(*faultPlan, *allowFaults)
	if err != nil {
		return err
	}

	h, err := server.New(server.Config{
		Parallel:       *parallel,
		CacheSize:      *cacheSize,
		Quick:          *quick,
		CacheDir:       *cacheDir,
		LightLimit:     *lightLimit,
		LightQueue:     *lightQueue,
		HeavyLimit:     *heavyLimit,
		HeavyQueue:     *heavyQueue,
		RequestTimeout: *requestTimeout,
		Faults:         faults,
	})
	if err != nil {
		return err
	}
	defer h.Close()
	srv := &http.Server{Addr: *addr, Handler: h}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "krak serve listening on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "krak serve: shutting down")
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
