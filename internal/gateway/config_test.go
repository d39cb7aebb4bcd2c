package gateway

import (
	"testing"
	"time"
)

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
		"slash spelling": func(c *Config) { c.Replicas = []string{"http://h:1", "http://h:1/"} },
		"case spelling":  func(c *Config) { c.Replicas = []string{"http://h:1", "HTTP://H:1"} },
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
