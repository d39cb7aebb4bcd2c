package gateway

import (
	"strings"
	"testing"
	"time"
)

func TestParseGatewayConfig(t *testing.T) {
	src := []byte(`
# two local replicas
replica http://127.0.0.1:8081
replica http://127.0.0.1:8082
virtual-nodes 32
probe-interval 500ms
probe-timeout 250ms
retries 2
retry-base 10ms
retry-cap 200ms
breaker-threshold 4
breaker-cooldown 2s
seed 7
quick true
`)
	cfg, err := ParseGatewayConfig(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Replicas) != 2 || cfg.VirtualNodes != 32 || cfg.Retries != 2 {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg.ProbeInterval != 500*time.Millisecond || cfg.BreakerThreshold != 4 || cfg.Seed != 7 {
		t.Fatalf("parsed %+v", cfg)
	}
	if !cfg.Quick {
		t.Fatalf("quick not applied: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestParseGatewayConfigDefaults(t *testing.T) {
	cfg, err := ParseGatewayConfig([]byte("replica http://127.0.0.1:8081\n"))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.VirtualNodes != def.VirtualNodes || cfg.Retries != def.Retries ||
		cfg.BreakerThreshold != def.BreakerThreshold {
		t.Fatalf("unset directives did not keep defaults: %+v", cfg)
	}
}

func TestParseGatewayConfigRejects(t *testing.T) {
	cases := map[string]string{
		"unknown directive": "frobnicate 1\n",
		"missing value":     "replica\n",
		"extra value":       "retries 1 2\n",
		"retries over cap":  "retries 99\n",
		"zero vnodes":       "virtual-nodes 0\n",
		"vnodes over cap":   "virtual-nodes 10000\n",
		"zero threshold":    "breaker-threshold 0\n",
		"zero duration":     "probe-interval 0s\n",
		"duration over cap": "probe-interval 2m\n",
		"zero seed":         "seed 0\n",
		"bad bool":          "quick maybe\n",
		"removed directive": "local-fallback true\n",
		"too many replicas": strings.Repeat("replica http://h\n", maxReplicas+1),
		"oversized input":   strings.Repeat(" ", maxConfigBytes+1),
		"too many lines":    strings.Repeat("\n", maxConfigLines+1),
	}
	for name, src := range cases {
		if _, err := ParseGatewayConfig([]byte(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err == nil {
		t.Fatal("config with no replicas validated")
	}
	cfg.Replicas = []string{"http://127.0.0.1:8081"}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config with one replica rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"bad url":        func(c *Config) { c.Replicas = []string{"not a url"} },
		"ftp scheme":     func(c *Config) { c.Replicas = []string{"ftp://host"} },
		"duplicate":      func(c *Config) { c.Replicas = []string{"http://h:1", "http://h:1"} },
		"neg retries":    func(c *Config) { c.Retries = -1 },
		"zero cooldown":  func(c *Config) { c.BreakerCooldown = 0 },
		"huge probe":     func(c *Config) { c.ProbeInterval = time.Hour },
		"zero threshold": func(c *Config) { c.BreakerThreshold = 0 },
	} {
		c := DefaultConfig()
		c.Replicas = []string{"http://127.0.0.1:8081"}
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}
