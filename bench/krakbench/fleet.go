package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"krak/internal/gateway"
	"krak/internal/server"
)

// replicaPorts are the fixed loopback ports the replicas listen on. The
// ring hashes replica URLs, so fixed ports keep key placement identical
// from run to run; they sit below the 32768-60999 ephemeral range so no
// outgoing connection can be holding one.
var replicaPorts = []int{27811, 27812, 27813}

// fleet is the documented deployment, in process: three quick replicas
// behind a gateway.
//
// Neither the replicas nor the gateway get a cache directory. The
// benchmark may write only inside its checkout, which sits on a real
// disk, and there the disk tier's writes (every miss on a replica, every
// proxied 200 on the gateway) stall for milliseconds to seconds at a
// time: with the tiers on, predict-hot p50 spread 0.63-1.61 ms over nine
// seeds, and one simulate-mixed seed repeated three times read p50
// 4.3/7.2/5.3 ms against 2.8-3.5 ms without them. A tmpfs would keep the
// syscalls and drop the device, but it lies outside the checkout. The
// tier's per-call cost is timed by the replay instead
// (artifacts.disk_put_us, artifacts.disk_get_us).
type fleet struct {
	replicas    []*server.Server
	replicaURLs []string
	gw          *gateway.Gateway
	gwURL       string

	http   []*http.Server
	served sync.WaitGroup
	stop   context.CancelFunc
}

// bootFleet starts the replicas on ports (0 = ephemeral) and the gateway
// on an ephemeral port. With spans set, every replica and the gateway are
// wrapped in span-recording handlers.
func bootFleet(ports []int, spans *recorder) (*fleet, error) {
	f := &fleet{}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	for i, port := range ports {
		s, err := server.New(server.Config{Quick: true})
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, s)
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			return nil, fmt.Errorf("replica %d: port %d is taken: %w", i, port, err)
		}
		var h http.Handler = s
		if spans != nil {
			h = spans.wrap(layerReplica+i, s)
		}
		f.serve(ln, h)
		f.replicaURLs = append(f.replicaURLs, "http://"+ln.Addr().String())
	}
	cfg := gateway.DefaultConfig()
	cfg.Replicas = f.replicaURLs
	cfg.Quick = true
	gw, err := gateway.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.gw, f.stop = gw, cancel
	gw.Start(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = gw
	if spans != nil {
		h = spans.wrap(layerGateway, gw)
	}
	f.serve(ln, h)
	f.gwURL = "http://" + ln.Addr().String()
	ok = true
	return f, nil
}

func (f *fleet) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.http = append(f.http, hs)
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		// ErrServerClosed after close; any other failure shows up as the
		// run's transport errors.
		_ = hs.Serve(ln)
	}()
}

// close drains the listeners, stops the gateway's probes and the
// replicas' background work, and waits for all of it.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, hs := range f.http {
		errs = append(errs, hs.Shutdown(ctx))
	}
	f.served.Wait()
	if f.stop != nil {
		f.stop()
		errs = append(errs, f.gw.Close())
	}
	for _, s := range f.replicas {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}
