package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"kbtim"
)

// routerCluster is the full cross-node topology in-process: two backend
// Servers, each a single engine over one hash shard's RR+IRR files (the
// exact processes the CI smoke runs as real binaries), a fanout router
// over their URLs, and — for the parity matrix — a single-engine and an
// in-process Sharded deployment over the same index payloads, every one
// behind the same HTTP handler stack.
type routerCluster struct {
	single  *httptest.Server
	sharded *httptest.Server
	router  *httptest.Server
	nodes   []*httptest.Server
	fo      *fanout
}

func startRouterCluster(t *testing.T) *routerCluster {
	t.Helper()
	const shards = 2
	ds, opts, rrPath, irrPath := shardedFixture(t, shards)
	c := &routerCluster{}

	be1, close1, err := openBackend(ds, opts, rrPath, irrPath, 1, kbtim.ShardHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close1() })
	c.single = httptest.NewServer(NewServer(be1, 4).Handler())
	t.Cleanup(c.single.Close)

	beN, closeN, err := openBackend(ds, opts, rrPath, irrPath, shards, kbtim.ShardHash, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeN() })
	c.sharded = httptest.NewServer(NewServer(beN, 4).Handler())
	t.Cleanup(c.sharded.Close)

	var urls []string
	for i := 0; i < shards; i++ {
		be, closeBE, err := openBackend(ds, opts,
			kbtim.ShardIndexPath(rrPath, i), kbtim.ShardIndexPath(irrPath, i), 1, kbtim.ShardHash, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeBE() })
		node := httptest.NewServer(NewServer(be, 4).Handler())
		t.Cleanup(node.Close)
		c.nodes = append(c.nodes, node)
		urls = append(urls, node.URL)
	}
	groups := make([][]string, len(urls))
	for i, u := range urls {
		groups[i] = []string{u}
	}
	cfg := defaultFanoutConfig()
	cfg.mode = kbtim.ShardHash
	cfg.decBudget = 1 << 20
	cfg.queryPar = 2
	cfg.proxyTimeout = 30 * time.Second
	cfg.noProbeLoop = true // tests drive reprobeOnce by hand where they need recovery
	c.fo, err = openFanout(groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.fo.Close() })
	c.router = httptest.NewServer(NewServer(c.fo, 4).Handler())
	t.Cleanup(c.router.Close)
	return c
}

// TestRouterThreeWayParity is the tentpole acceptance test: for both
// strategies and every query shape (co-located fast path and spanning
// scatter), a 2-node HTTP router returns byte-identical seeds, marginals,
// and spreads to BOTH a single engine and an in-process Sharded deployment
// over the same index payloads.
func TestRouterThreeWayParity(t *testing.T) {
	c := startRouterCluster(t)
	queries := []queryRequest{
		{Topics: []int{0}, K: 3},                      // co-located: proxied whole
		{Topics: []int{3}, K: 2},                      // co-located on the other node
		{Topics: []int{0, 1}, K: 3},                   // spans under hash
		{Topics: []int{2, 5, 7}, K: 4},                // spans
		{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5}, // whole universe
	}
	for _, strategy := range []string{"rr", "irr"} {
		for _, q := range queries {
			q.Strategy = strategy
			one, resp := postQuery(t, c.single, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single %s %v: %v", strategy, q.Topics, resp.Status)
			}
			box, resp := postQuery(t, c.sharded, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sharded %s %v: %v", strategy, q.Topics, resp.Status)
			}
			net, resp := postQuery(t, c.router, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("router %s %v: %v", strategy, q.Topics, resp.Status)
			}
			for _, pair := range []struct {
				name string
				got  *queryResponse
			}{{"sharded", box}, {"router", net}} {
				if !reflect.DeepEqual(pair.got.Seeds, one.Seeds) ||
					!reflect.DeepEqual(pair.got.Marginals, one.Marginals) ||
					pair.got.EstSpread != one.EstSpread || pair.got.NumRRSets != one.NumRRSets {
					t.Fatalf("%s %s %v: (%v, %v, %v, %d) != single (%v, %v, %v, %d)",
						pair.name, strategy, q.Topics,
						pair.got.Seeds, pair.got.Marginals, pair.got.EstSpread, pair.got.NumRRSets,
						one.Seeds, one.Marginals, one.EstSpread, one.NumRRSets)
				}
			}

			// Streaming pass over the same three topologies: the emitted
			// seed records, concatenated, must be byte-identical to the
			// single-engine batch answer, and a deadline comfortably larger
			// than the query needs must be invisible (partial=false, same
			// payload) — including across the router's proxy wire, which
			// forwards the remaining budget as deadline_ms.
			q.DeadlineMS = 60_000
			for _, topo := range []struct {
				name string
				ts   *httptest.Server
			}{{"single", c.single}, {"sharded", c.sharded}, {"router", c.router}} {
				recs, final := postQueryStream(t, topo.ts, q)
				var seeds []uint32
				var marginals []int
				for _, r := range recs {
					seeds = append(seeds, r.Seed)
					marginals = append(marginals, r.Marginal)
				}
				if !reflect.DeepEqual(seeds, one.Seeds) || !reflect.DeepEqual(marginals, one.Marginals) {
					t.Fatalf("%s stream %s %v: streamed (%v,%v) != single batch (%v,%v)",
						topo.name, strategy, q.Topics, seeds, marginals, one.Seeds, one.Marginals)
				}
				if final.Partial {
					t.Fatalf("%s stream %s %v: generous deadline marked the reply partial", topo.name, strategy, q.Topics)
				}
				if !reflect.DeepEqual(final.Seeds, one.Seeds) || final.EstSpread != one.EstSpread {
					t.Fatalf("%s stream %s %v: terminal record diverged from single batch", topo.name, strategy, q.Topics)
				}
			}
			q.DeadlineMS = 0
		}
	}
	// The matrix above must have exercised BOTH router paths, on both nodes.
	if c.fo.proxCnt.Load() == 0 || c.fo.scatCnt.Load() == 0 {
		t.Fatalf("parity matrix did not cover both paths: proxied=%d scattered=%d",
			c.fo.proxCnt.Load(), c.fo.scatCnt.Load())
	}
	for i, n := range c.fo.nodes {
		if n.proxied.Load()+n.client.Stats().Fetches == 0 {
			t.Fatalf("backend %d never participated in a query", i)
		}
	}
	// The scattered queries must have traveled BATCHED: the /stats wire
	// counters show more units delivered inside batch replies than wire
	// round trips issued in total — the whole point of the v2 protocol.
	resp, err := http.Get(c.router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Router == nil {
		t.Fatal("/stats has no router section")
	}
	if stats.Router.BatchedUnits <= stats.Router.FetchRequests {
		t.Fatalf("batching did not amortize the wire: %d batched units over %d fetch requests",
			stats.Router.BatchedUnits, stats.Router.FetchRequests)
	}
	if stats.Router.UnitsPerRequest <= 1 {
		t.Fatalf("units_per_request = %v, want > 1", stats.Router.UnitsPerRequest)
	}
}

// TestRouterStatsAndHealth: the router's /stats carries the per-backend
// fan-out section (with the backends' own stats embedded) and /healthz
// turns 503 the moment a backend goes away.
func TestRouterStatsAndHealth(t *testing.T) {
	c := startRouterCluster(t)
	if _, resp := postQuery(t, c.router, queryRequest{Topics: []int{0, 1, 2, 3}, K: 3, Strategy: "irr"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup query: %v", resp.Status)
	}

	resp, err := http.Get(c.router.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Router == nil {
		t.Fatal("/stats has no router section")
	}
	if got := len(stats.Router.Backends); got != 2 {
		t.Fatalf("router section lists %d backends, want 2", got)
	}
	for i, b := range stats.Router.Backends {
		if !b.Healthy {
			t.Fatalf("backend %d (%s) reported unhealthy", i, b.URL)
		}
		if b.Breaker != breakerClosed {
			t.Fatalf("backend %d breaker = %q, want closed", i, b.Breaker)
		}
		if !b.Validated {
			t.Fatalf("backend %d not validated despite being up at open", i)
		}
		if b.Shard != i {
			t.Fatalf("backend %d reports shard %d", i, b.Shard)
		}
		if b.Stats == nil {
			t.Fatalf("backend %d stats not embedded", i)
		}
		if b.ArtifactFetches == 0 || b.WireBytes == 0 {
			t.Fatalf("backend %d moved no artifacts: %d fetches, %d wire bytes", i, b.ArtifactFetches, b.WireBytes)
		}
	}
	if stats.Router.FetchRequests == 0 || stats.Router.BatchedUnits == 0 {
		t.Fatalf("spanning warmup moved no batched artifacts: fetch_requests=%d batched_units=%d",
			stats.Router.FetchRequests, stats.Router.BatchedUnits)
	}
	if stats.Router.Proxied+stats.Router.Scattered == 0 {
		t.Fatal("router counted no traffic")
	}
	if stats.Router.Retries != 0 || stats.Router.Failovers != 0 || stats.Router.Degraded != 0 {
		t.Fatalf("healthy cluster reports retries=%d failovers=%d degraded=%d, want zeros",
			stats.Router.Retries, stats.Router.Failovers, stats.Router.Degraded)
	}
	if got := stats.Router.ProxyTimeoutSec; got != 30 {
		t.Fatalf("proxy_timeout_sec = %v, want the configured 30", got)
	}
	if stats.Router.HealthTTLSec != 2 || stats.Router.ProbeTimeoutSec != 2 {
		t.Fatalf("health_ttl_sec=%v probe_timeout_sec=%v, want the configured 2s defaults",
			stats.Router.HealthTTLSec, stats.Router.ProbeTimeoutSec)
	}

	if resp, err = http.Get(c.router.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with live backends: %v %v", resp, err)
	}
	resp.Body.Close()
	if err := c.fo.CheckHealth(context.Background()); err != nil {
		t.Fatalf("CheckHealth with live backends: %v", err)
	}

	// Take one backend down: the router must stop reporting healthy.
	// (Disable the probe TTL cache so the verdict is live, not the cached
	// "healthy" from the checks above.)
	c.fo.healthTTL = 0
	c.nodes[1].Close()
	if resp, err = http.Get(c.router.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead backend: got %v, want 503", resp.Status)
	}
	resp.Body.Close()
}
