package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"krak/internal/server"
)

// cacheFleet starts n real quick replicas and a gateway over them.
func cacheFleet(t *testing.T, n int) (*Gateway, []*httptest.Server) {
	t.Helper()
	var (
		urls     []string
		replicas []*httptest.Server
	)
	for i := 0; i < n; i++ {
		ts, _ := chaosReplica(t, nil)
		urls = append(urls, ts.URL)
		replicas = append(replicas, ts)
	}
	cfg := testConfig(urls...)
	cfg.Quick = true
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, replicas
}

// proxiedTotal sums the per-replica proxied counters: requests a
// replica answered.
func proxiedTotal(g *Gateway) int64 {
	var n int64
	for i := range g.proxiedByIndex {
		n += g.proxiedByIndex[i].Load()
	}
	return n
}

// TestGatewayCacheAdmitsOnlyReplicaHits: the gateway stores a body only
// when the replica said its own LRU already held it and the body's
// digest checked out. A replica that sends no Cache-Status is asked
// every time; one that claims a hit for a body whose digest lies is
// never relayed or stored; one that claims a hit for an intact body is
// asked once, and the repeats are answered by the gateway with the
// stored bytes and header fields.
func TestGatewayCacheAdmitsOnlyReplicaHits(t *testing.T) {
	const n = 5
	body := predictBody(16)

	plain := newStubReplica()
	defer plain.ts.Close()
	g, err := New(testConfig(plain.ts.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := post(t, g, "/v1/predict", body)
		if rec.Code != http.StatusOK || rec.Header().Get("Cache-Status") != cacheStatusFwd {
			t.Fatalf("no Cache-Status, request %d: status %d, Cache-Status %q", i, rec.Code, rec.Header().Get("Cache-Status"))
		}
	}
	if got := plain.requests.Load(); got != n || g.cache.Len() != 0 {
		t.Fatalf("no Cache-Status: the replica saw %d of %d requests and the gateway holds %d bodies; want all, none",
			got, n, g.cache.Len())
	}

	lying := newStubReplica()
	defer lying.ts.Close()
	lying.hit.Store(true)
	lying.damage.Store(wrongDigest)
	g, err = New(testConfig(lying.ts.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if rec := post(t, g, "/v1/predict", body); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("hit with a wrong digest, request %d: status %d, want 503", i, rec.Code)
		}
	}
	if g.cache.Len() != 0 || g.cacheHits.Load() != 0 {
		t.Fatalf("a body whose digest failed was stored: %d entries, %d hits", g.cache.Len(), g.cacheHits.Load())
	}

	hit := newStubReplica()
	defer hit.ts.Close()
	hit.hit.Store(true)
	g, err = New(testConfig(hit.ts.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	first := post(t, g, "/v1/predict", body)
	if want := server.CacheStatusHit + ", " + cacheStatusFwd + "; stored"; first.Header().Get("Cache-Status") != want {
		t.Fatalf("stored answer's Cache-Status %q, want %q", first.Header().Get("Cache-Status"), want)
	}
	for i := 1; i < n; i++ {
		rec := post(t, g, "/v1/predict", body)
		if rec.Code != http.StatusOK || rec.Body.String() != stubBody {
			t.Fatalf("repeat %d: status %d body %q", i, rec.Code, rec.Body.String())
		}
		for k, want := range map[string]string{
			"Content-Type":   "application/json",
			"Content-Digest": server.ContentDigest([]byte(stubBody)),
			"Content-Length": strconv.Itoa(len(stubBody)),
			"Cache-Status":   server.CacheStatusHit + ", " + cacheStatusHit,
		} {
			if got := rec.Header().Get(k); got != want {
				t.Fatalf("repeat %d: %s %q, want %q", i, k, got, want)
			}
		}
	}
	if got := hit.requests.Load(); got != 1 || g.cacheHits.Load() != n-1 {
		t.Fatalf("replica LRU hits: the replica saw %d requests and the gateway answered %d; want 1 and %d",
			got, g.cacheHits.Load(), n-1)
	}
	if got := g.metrics.Total("krak_gateway_cache_hits_total"); got != n-1 {
		t.Fatalf("krak_gateway_cache_hits_total = %v, want %d", got, n-1)
	}
	if got := g.metrics.Total("krak_gateway_cache_entries"); got != 1 {
		t.Fatalf("krak_gateway_cache_entries = %v, want 1", got)
	}
}

// TestGatewayCacheKeepsStrictDecode: a body the replica refuses gets the
// replica's refusal even when it names a key the gateway holds. With
// the lenient decode the ring key used to take, a body with an unknown
// field or trailing data shared the cached key and would have been
// served the cached 200; a request under another method than the
// route's is never answered from the cache either.
func TestGatewayCacheKeepsStrictDecode(t *testing.T) {
	g, _ := cacheFleet(t, 1)
	body := predictBody(16)
	for i := 0; i < 2; i++ { // a replica miss, then a replica hit the gateway stores
		if rec := post(t, g, "/v1/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("warm-up %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if rec := post(t, g, "/v1/predict", body); !strings.HasSuffix(rec.Header().Get("Cache-Status"), cacheStatusHit) {
		t.Fatalf("the key was not cached: Cache-Status %q", rec.Header().Get("Cache-Status"))
	}
	for _, bad := range []string{
		`{"deck":"small","pes":16,"bogus":1}`,
		`{"deck":"small","pes":16} {"deck":"small"}`,
	} {
		rec := post(t, g, "/v1/predict", []byte(bad))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "decoding request") {
			t.Errorf("%s: status %d body %q, want the replica's 400", bad, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict with a cached key's body: status %d, want the replica's 405", rec.Code)
	}
}

// TestGatewayServesCachedKeyWithOwnerDead: once the gateway holds a key,
// the replica that owns it can die and the key is still answered, by the
// gateway, byte-identically, with no attempt on any replica.
func TestGatewayServesCachedKeyWithOwnerDead(t *testing.T) {
	g, replicas := cacheFleet(t, 3)
	body := predictBody(16)
	var want []byte
	for i := 0; i < 2; i++ {
		rec := post(t, g, "/v1/predict", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("warm-up %d: status %d: %s", i, rec.Code, rec.Body)
		}
		want = rec.Body.Bytes()
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	replicas[g.ring.owner(g.classify(req, body).key)].Close()
	proxied := proxiedTotal(g)

	rec := post(t, g, "/v1/predict", body)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("owner dead: status %d; body byte-identical = %v", rec.Code, bytes.Equal(rec.Body.Bytes(), want))
	}
	if cs := rec.Header().Get("Cache-Status"); !strings.HasSuffix(cs, cacheStatusHit) {
		t.Fatalf("owner dead: Cache-Status %q, want it to end with %q", cs, cacheStatusHit)
	}
	if got := proxiedTotal(g); got != proxied || g.retries.Load() != 0 {
		t.Fatalf("a cache hit reached replicas: proxied %d -> %d, %d retries", proxied, got, g.retries.Load())
	}
}

// TestGatewayRelayKeepsLength: a 2xx body reaches the client with the
// exact Content-Length the replica sent, not in chunks, whether the
// gateway forwarded it or answered from its cache. The relay used to
// drop the length, so a body past net/http's 2 KiB buffer arrived with
// Transfer-Encoding: chunked.
func TestGatewayRelayKeepsLength(t *testing.T) {
	g, replicas := cacheFleet(t, 1)
	front := httptest.NewServer(g)
	defer front.Close()
	body := predictBody(16)
	fetch := func(base string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}
	_, direct := fetch(replicas[0].URL)
	if len(direct) <= 2048 {
		t.Fatalf("a %d-byte body fits net/http's buffer, so it would not be chunked anyway", len(direct))
	}
	// The replica already holds the key: the first answer is forwarded
	// and stored, the second comes from the gateway's cache.
	for _, path := range []string{cacheStatusFwd + "; stored", cacheStatusHit} {
		resp, got := fetch(front.URL)
		if cs := resp.Header.Get("Cache-Status"); !strings.HasSuffix(cs, path) {
			t.Fatalf("Cache-Status %q, want it to end with %q", cs, path)
		}
		if resp.ContentLength != int64(len(direct)) || len(resp.TransferEncoding) != 0 || !bytes.Equal(got, direct) {
			t.Errorf("%s: ContentLength %d, Transfer-Encoding %v for a %d-byte body; byte-identical = %v",
				path, resp.ContentLength, resp.TransferEncoding, len(direct), bytes.Equal(got, direct))
		}
	}
}

// TestGatewayRelaysHead: a HEAD through the gateway answers what a HEAD
// on the replica answers, with the same Content-Length and
// Content-Digest and no body, and charges no replica. The gateway used
// to forward the HEAD, read the declared length of a body the replica
// never sends, fail with io.ErrUnexpectedEOF, charge the breaker and
// answer 503. A HEAD on the gateway's own /metrics and /healthz is the
// gateway's to answer: it used to be proxied, and the replica's
// /metrics, which carries no Content-Digest, was refused with a 503.
func TestGatewayRelaysHead(t *testing.T) {
	g, replicas := cacheFleet(t, 1)
	front := httptest.NewServer(g)
	defer front.Close()
	head := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Head(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}
	direct, _ := head(replicas[0].URL + "/v1/machines")
	if direct.StatusCode != http.StatusOK || direct.ContentLength <= 0 || direct.Header.Get("Content-Digest") == "" {
		t.Fatalf("direct HEAD: %d, ContentLength %d, Content-Digest %q", direct.StatusCode, direct.ContentLength, direct.Header.Get("Content-Digest"))
	}
	resp, body := head(front.URL + "/v1/machines")
	if resp.StatusCode != http.StatusOK || resp.ContentLength != direct.ContentLength ||
		resp.Header.Get("Content-Digest") != direct.Header.Get("Content-Digest") || len(body) != 0 {
		t.Errorf("HEAD through the gateway: %d, ContentLength %d, Content-Digest %q, %d body bytes; direct: ContentLength %d, Content-Digest %q",
			resp.StatusCode, resp.ContentLength, resp.Header.Get("Content-Digest"), len(body),
			direct.ContentLength, direct.Header.Get("Content-Digest"))
	}
	for _, path := range []string{"/metrics", "/healthz"} {
		if resp, body := head(front.URL + path); resp.StatusCode != http.StatusOK || len(body) != 0 {
			t.Errorf("HEAD %s on the gateway: %d with %d body bytes, want 200 and none", path, resp.StatusCode, len(body))
		}
	}
	if n := proxiedTotal(g); n != 1 {
		t.Errorf("replicas answered %d requests, want 1: the gateway answers HEAD on its own endpoints", n)
	}
	br := g.replicas[0].breaker
	br.mu.Lock()
	state, failures := br.state, br.failures
	br.mu.Unlock()
	if state != breakerClosed || failures != 0 || g.retries.Load() != 0 {
		t.Errorf("breaker state %d with %d failures, %d retries; want closed, 0, 0", state, failures, g.retries.Load())
	}
}
