package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestLoadFaultPlan(t *testing.T) {
	if inj, err := loadFaultPlan("", false); inj != nil || err != nil {
		t.Fatalf("empty path = %v, %v, want nil, nil", inj, err)
	}
	if _, err := loadFaultPlan("anything", false); err == nil || !strings.Contains(err.Error(), "allow-faults") {
		t.Fatalf("unacknowledged plan = %v, want allow-faults refusal", err)
	}
	if _, err := loadFaultPlan(filepath.Join(t.TempDir(), "nope"), true); err == nil {
		t.Fatal("missing plan file accepted")
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.plan")
	if err := os.WriteFile(bad, []byte("plan x\nerror-rate 7.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFaultPlan(bad, true); err == nil {
		t.Fatal("malformed plan accepted")
	}

	good := filepath.Join(dir, "good.plan")
	if err := os.WriteFile(good, []byte("plan drill\nseed 9\nlatency-rate 0.5\nlatency 1ms 10ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	inj, err := loadFaultPlan(good, true)
	if err != nil {
		t.Fatal(err)
	}
	p := inj.Plan()
	if p.Name != "drill" || p.Seed != 9 {
		t.Fatalf("armed plan = %+v", p)
	}
}

func TestRunServeValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative parallel", []string{"-parallel", "-1"}},
		{"zero cache", []string{"-cache-size", "0"}},
		{"negative request timeout", []string{"-request-timeout", "-1s"}},
		{"unarmed fault plan", []string{"-fault-plan", "x.plan"}},
	}
	for _, tc := range cases {
		if err := runServe(tc.args); err == nil {
			t.Errorf("%s: runServe accepted", tc.name)
		}
	}
}

func TestRunServeListenConflict(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = runServe([]string{"-addr", ln.Addr().String(), "-quick"})
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("runServe on an occupied port: %v", err)
	}
}

// TestRunServeGracefulShutdown boots the real subcommand, waits for
// /healthz, and delivers SIGTERM — the same rolling-restart contract
// the gateway test pins, exercised at the replica level.
func TestRunServeGracefulShutdown(t *testing.T) {
	addr := freePort(t)
	errc := make(chan error, 1)
	go func() {
		errc <- runServe([]string{"-addr", addr, "-quick", "-cache-size", "8"})
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
		t.Fatal("serve did not shut down on SIGTERM")
	}
}
