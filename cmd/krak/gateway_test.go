package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestStringList(t *testing.T) {
	var s stringList
	if err := s.Set("http://a:1, http://b:2,,"); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("http://c:3"); err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 || s[0] != "http://a:1" || s[2] != "http://c:3" {
		t.Fatalf("stringList = %v", s)
	}
	if got := s.String(); got != "http://a:1,http://b:2,http://c:3" {
		t.Fatalf("String() = %q", got)
	}
}

func TestRunGatewayErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.conf")
	if err := os.WriteFile(bad, []byte("gateway broken\nnot-a-directive"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no replicas", nil, "replica"},
		{"one backend twice", []string{"-replica", "http://127.0.0.1:1,http://127.0.0.1:1/"}, "duplicate replica"},
		{"unarmed fault plan", []string{"-replica", "http://127.0.0.1:1", "-fault-plan", bad}, "allow-faults"},
	}
	for _, tc := range cases {
		err := runGateway(tc.args)
		if err == nil {
			t.Errorf("%s: runGateway accepted", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestRunGatewayListenConflict drives the full startup path — flag
// overrides, fault-plan arming, gateway construction — into a
// deterministic ListenAndServe failure on an occupied port.
func TestRunGatewayListenConflict(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	dir := t.TempDir()
	plan := filepath.Join(dir, "chaos.plan")
	if err := os.WriteFile(plan, []byte("plan cli-test\nseed 7\nerror-rate 0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = runGateway([]string{
		"-addr", ln.Addr().String(),
		"-replica", "http://127.0.0.1:1,http://127.0.0.1:2,http://127.0.0.1:3",
		"-quick",
		"-retries", "2",
		"-probe-interval", "30s",
		"-breaker-threshold", "5",
		"-breaker-cooldown", "1s",
		"-fault-plan", plan,
		"-allow-faults",
	})
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("runGateway on an occupied port: %v", err)
	}
}

// waitHTTP polls url until it answers 200, failing fast if the runner
// under test returns an error instead of serving.
func waitHTTP(t *testing.T, url string, errc <-chan error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-errc:
			t.Fatalf("runner exited before serving: %v", err)
		default:
		}
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", url)
}

// freePort reserves an ephemeral port and releases it for the runner
// to bind. The tiny reuse window is fine for a test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunGatewayGracefulShutdown boots the real subcommand, confirms
// it serves its own /healthz, then delivers SIGTERM and expects a
// clean nil return — the operator contract for rolling restarts.
func TestRunGatewayGracefulShutdown(t *testing.T) {
	addr := freePort(t)
	errc := make(chan error, 1)
	go func() {
		errc <- runGateway([]string{"-addr", addr, "-replica", "http://127.0.0.1:1", "-quick", "-probe-interval", "30s"})
	}()
	waitHTTP(t, fmt.Sprintf("http://%s/healthz", addr), errc)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("gateway did not shut down on SIGTERM")
	}
}
