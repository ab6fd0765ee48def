package remote_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kbtim"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/objcache"
	"kbtim/internal/remote"
	"kbtim/internal/rrindex"
	"kbtim/internal/shardmap"
	"kbtim/internal/topic"
)

// kbtim.Engine is the production Source implementation; pin that here so a
// signature drift breaks this package's tests, not just cmd/kbtim-serve.
var _ remote.Source = (*kbtim.Engine)(nil)

func testOptions() kbtim.Options {
	return kbtim.Options{
		Epsilon:            0.5,
		K:                  10,
		MaxThetaPerKeyword: 4000,
		PartitionSize:      5,
		Seed:               11,
	}
}

// cluster is a 2-node remote deployment plus the local single-index truth:
// two backend engines each serving one hash shard's RR+IRR files over
// httptest, remote-opened indexes on the "router" side, and directly opened
// full indexes for parity comparison.
type cluster struct {
	sm        *shardmap.Map
	rrRemote  []*rrindex.Index
	irrRemote []*irrindex.Index
	rrLocal   *rrindex.Index
	irrLocal  *irrindex.Index
	clients   []*remote.Client
}

func (c *cluster) rrOwner(w int) *rrindex.Index {
	if w < 0 || w >= c.sm.NumTopics() {
		return nil
	}
	return c.rrRemote[c.sm.Owner(w)]
}

func (c *cluster) irrOwner(w int) *irrindex.Index {
	if w < 0 || w >= c.sm.NumTopics() {
		return nil
	}
	return c.irrRemote[c.sm.Owner(w)]
}

// newCluster builds the dataset, the full and 2-shard index files, the two
// backend nodes, and the remote opens. cacheBytes > 0 attaches a decoded
// cache to each remote index (the router-side tier that keeps hot artifacts
// off the wire).
func newCluster(t *testing.T, cacheBytes int64) *cluster {
	t.Helper()
	ds, err := kbtim.GenerateDataset(kbtim.DatasetSpec{
		Kind: kbtim.TwitterLike, NumUsers: 300, AvgDegree: 6,
		NumTopics: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	builder, err := kbtim.NewEngine(ds, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { builder.Close() })
	rrFull := filepath.Join(dir, "full.rr")
	irrFull := filepath.Join(dir, "full.irr")
	if _, err := builder.BuildRRIndex(rrFull); err != nil {
		t.Fatal(err)
	}
	if _, err := builder.BuildIRRIndex(irrFull); err != nil {
		t.Fatal(err)
	}
	const shards = 2
	pathFor := func(kind string) func(int) string {
		return func(i int) string {
			return kbtim.ShardIndexPath(filepath.Join(dir, "ads."+kind), i)
		}
	}
	if _, err := builder.BuildShardIndexes("rr", shards, kbtim.ShardHash, pathFor("rr")); err != nil {
		t.Fatal(err)
	}
	if _, err := builder.BuildShardIndexes("irr", shards, kbtim.ShardHash, pathFor("irr")); err != nil {
		t.Fatal(err)
	}

	sm, err := shardmap.New(shards, shardmap.Hash, ds.NumTopics())
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{sm: sm}
	topicsBy, err := builder.ShardTopics(shards, kbtim.ShardHash)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < shards; i++ {
		if len(topicsBy[i]) == 0 {
			t.Fatalf("shard %d owns no topics; pick a dataset that spreads", i)
		}
		eng, err := kbtim.NewEngine(ds, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		if err := eng.OpenRRIndex(pathFor("rr")(i)); err != nil {
			t.Fatal(err)
		}
		if err := eng.OpenIRRIndex(pathFor("irr")(i)); err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle(remote.BatchPath, remote.NewBatchHandler(eng))
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		client := remote.NewClient(srv.URL, srv.Client())
		c.clients = append(c.clients, client)
		rr, err := client.OpenRR(ctx)
		if err != nil {
			t.Fatal(err)
		}
		irr, err := client.OpenIRR(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if cacheBytes > 0 {
			rr.SetDecodedCache(objcache.New(cacheBytes))
			irr.SetDecodedCache(objcache.New(cacheBytes))
		}
		c.rrRemote = append(c.rrRemote, rr)
		c.irrRemote = append(c.irrRemote, irr)
	}

	openLocal := func(path string) diskio.Segmented {
		f, err := diskio.Open(path, diskio.NewCounter())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	if c.rrLocal, err = rrindex.Open(openLocal(rrFull)); err != nil {
		t.Fatal(err)
	}
	if c.irrLocal, err = irrindex.Open(openLocal(irrFull)); err != nil {
		t.Fatal(err)
	}
	return c
}

// parityQueries covers co-located single keywords, spanning pairs, and the
// whole universe (always spanning under hash over 8 topics).
func parityQueries() []topic.Query {
	return []topic.Query{
		{Topics: []int{0}, K: 3},
		{Topics: []int{3}, K: 2},
		{Topics: []int{0, 1}, K: 3},
		{Topics: []int{2, 5, 7}, K: 4},
		{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5},
	}
}

// TestRemoteParity is the cross-node half of the parity invariant: queries
// over remote-opened shard indexes — every artifact crossing the wire —
// return byte-identical seeds, marginals, and spreads to a directly opened
// single full index, for both strategies, spanning queries included.
func TestRemoteParity(t *testing.T) {
	c := newCluster(t, 0)
	ctx := context.Background()
	for _, q := range parityQueries() {
		wantRR, err := c.rrLocal.Query(q)
		if err != nil {
			t.Fatalf("local rr %v: %v", q.Topics, err)
		}
		gotRR, err := rrindex.QueryMultiCtx(ctx, c.rrOwner, q)
		if err != nil {
			t.Fatalf("remote rr %v: %v", q.Topics, err)
		}
		if !reflect.DeepEqual(gotRR.Seeds, wantRR.Seeds) ||
			!reflect.DeepEqual(gotRR.Marginals, wantRR.Marginals) ||
			gotRR.EstSpread != wantRR.EstSpread || gotRR.NumRRSets != wantRR.NumRRSets {
			t.Fatalf("rr %v: remote (%v, %v, %v) != local (%v, %v, %v)", q.Topics,
				gotRR.Seeds, gotRR.Marginals, gotRR.EstSpread,
				wantRR.Seeds, wantRR.Marginals, wantRR.EstSpread)
		}
		wantIRR, err := c.irrLocal.Query(q)
		if err != nil {
			t.Fatalf("local irr %v: %v", q.Topics, err)
		}
		gotIRR, err := irrindex.QueryMultiCtx(ctx, c.irrOwner, q)
		if err != nil {
			t.Fatalf("remote irr %v: %v", q.Topics, err)
		}
		if !reflect.DeepEqual(gotIRR.Seeds, wantIRR.Seeds) ||
			!reflect.DeepEqual(gotIRR.Marginals, wantIRR.Marginals) ||
			gotIRR.EstSpread != wantIRR.EstSpread {
			t.Fatalf("irr %v: remote (%v, %v, %v) != local (%v, %v, %v)", q.Topics,
				gotIRR.Seeds, gotIRR.Marginals, gotIRR.EstSpread,
				wantIRR.Seeds, wantIRR.Marginals, wantIRR.EstSpread)
		}
		// Theorem 3 should survive the wire too: both strategies agree on
		// the greedy trace.
		if !reflect.DeepEqual(gotRR.Marginals, gotIRR.Marginals) {
			t.Fatalf("%v: remote RR marginals %v != remote IRR marginals %v",
				q.Topics, gotRR.Marginals, gotIRR.Marginals)
		}
	}
}

// TestRemoteDecodedCacheKeepsHotArtifactsOffTheWire: with a decoded cache
// attached, repeating a query must cost zero additional artifact fetches —
// the cache fronts the wire exactly as it fronts the disk locally.
func TestRemoteDecodedCacheKeepsHotArtifactsOffTheWire(t *testing.T) {
	c := newCluster(t, 1<<20)
	ctx := context.Background()
	q := topic.Query{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5}
	first, err := irrindex.QueryMultiCtx(ctx, c.irrOwner, q)
	if err != nil {
		t.Fatal(err)
	}
	fetchesAfterFirst := int64(0)
	for _, cl := range c.clients {
		fetchesAfterFirst += cl.Stats().Fetches
	}
	second, err := irrindex.QueryMultiCtx(ctx, c.irrOwner, q)
	if err != nil {
		t.Fatal(err)
	}
	fetchesAfterSecond := int64(0)
	for _, cl := range c.clients {
		fetchesAfterSecond += cl.Stats().Fetches
	}
	if fetchesAfterSecond != fetchesAfterFirst {
		t.Fatalf("repeat query fetched %d artifacts over the wire; want 0 (cache should absorb them)",
			fetchesAfterSecond-fetchesAfterFirst)
	}
	if !reflect.DeepEqual(first.Seeds, second.Seeds) || first.EstSpread != second.EstSpread {
		t.Fatalf("cached rerun diverged: %v/%v vs %v/%v", first.Seeds, first.EstSpread, second.Seeds, second.EstSpread)
	}
	if second.DecodedHits == 0 {
		t.Fatalf("repeat query reported no decoded-cache hits")
	}
}

// TestRemoteProtocolErrors pins the failure surface of the one-unit path:
// unknown units and unknown kinds are ErrNotServed with the source's
// message, and a canceled context aborts the fetch.
func TestRemoteProtocolErrors(t *testing.T) {
	c := newCluster(t, 0)
	ctx := context.Background()
	if _, _, err := c.clients[0].Fetch(ctx, remote.KindRR, "bogus", 0, 0); !errors.Is(err, remote.ErrNotServed) ||
		!strings.Contains(err.Error(), "unknown artifact unit") {
		t.Fatalf("bogus unit: got %v, want an unknown-unit ErrNotServed", err)
	}
	if _, _, err := c.clients[0].Fetch(ctx, "bogus", rrindex.UnitInv, 0, 0); !errors.Is(err, remote.ErrNotServed) ||
		!strings.Contains(err.Error(), "unknown index kind") {
		t.Fatalf("bogus kind: got %v, want an unknown-kind ErrNotServed", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := c.clients[0].Fetch(canceled, remote.KindRR, rrindex.UnitDir, 0, 0); err == nil {
		t.Fatal("canceled fetch succeeded")
	}
}

// TestTransportReusesConnections pins the connection-reuse fix: sequential
// fetches through a NewTransport-backed client must ride the same warm
// connection (httptrace reports every connection after the first as reused)
// instead of re-paying TCP setup per round trip.
func TestTransportReusesConnections(t *testing.T) {
	c := newCluster(t, 0)
	srv := httptest.NewServer(proxyTo(t, c.clients[0]))
	defer srv.Close()
	cl := remote.NewClient(srv.URL, &http.Client{Transport: remote.NewTransport(4)})
	var got, reused int
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			got++
			if info.Reused {
				reused++
			}
		},
	})
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if _, _, err := cl.Fetch(ctx, remote.KindRR, rrindex.UnitDir, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got != rounds || reused != rounds-1 {
		t.Fatalf("%d fetches used %d connections (%d reused); want every connection after the first reused", rounds, got, reused)
	}
}

// TestRemoteWireBytesAccounted: a cache-less spanning query must report I/O
// equal to the artifact bytes the clients moved (the scope records every
// remote fetch), so the router's wire accounting is trustworthy.
func TestRemoteWireBytesAccounted(t *testing.T) {
	c := newCluster(t, 0)
	ctx := context.Background()
	before := int64(0)
	for _, cl := range c.clients {
		before += cl.Stats().Bytes
	}
	res, err := rrindex.QueryMultiCtx(ctx, c.rrOwner, topic.Query{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	after := int64(0)
	for _, cl := range c.clients {
		after += cl.Stats().Bytes
	}
	if res.IO.BytesRead != after-before {
		t.Fatalf("query reports %d bytes read, clients moved %d", res.IO.BytesRead, after-before)
	}
}
