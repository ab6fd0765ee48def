package remote_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"kbtim"
	"kbtim/internal/artifact"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/remote"
	"kbtim/internal/rrindex"
	"kbtim/internal/shardmap"
)

// flakyHandler fails the next `failN` requests with a 500 before passing
// traffic through — the injected transient fault the Group must retry around.
type flakyHandler struct {
	inner http.Handler
	failN atomic.Int64
	hits  atomic.Int64
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.hits.Add(1)
	if h.failN.Add(-1) >= 0 {
		http.Error(w, "injected fault", http.StatusInternalServerError)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// sizeTamper rewrites the advertised index size on every response — a
// replica that answers happily but claims to serve a different file.
type sizeTamper struct {
	inner http.Handler
	delta int64
}

type tamperWriter struct {
	http.ResponseWriter
	delta int64
}

func (w tamperWriter) WriteHeader(code int) {
	const sizeHeader = "X-Kbtim-Index-Size"
	if v := w.Header().Get(sizeHeader); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err == nil {
			w.Header().Set(sizeHeader, strconv.FormatInt(n+w.delta, 10))
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (h *sizeTamper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.inner.ServeHTTP(tamperWriter{ResponseWriter: w, delta: h.delta}, r)
}

// truncBatch models a replica dying MID-BATCH: for the next `cut` batch
// requests it delivers the real headers plus only the first reply record,
// then ends the body — the client keeps the parsed prefix and must re-issue
// just the remainder elsewhere. Non-batch traffic passes through untouched.
type truncBatch struct {
	inner http.Handler
	cut   atomic.Int64
	hits  atomic.Int64 // batch requests actually truncated
}

func (h *truncBatch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != remote.BatchPath || h.cut.Add(-1) < 0 {
		h.inner.ServeHTTP(w, r)
		return
	}
	h.hits.Add(1)
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	end := len(body)
	if rec.Code == http.StatusOK && len(body) > 1 {
		// One record = status byte + uvarint length + payload.
		if n, u := binary.Uvarint(body[1:]); u > 0 && 1+u+int(n) < len(body) {
			end = 1 + u + int(n)
		}
	}
	for k, vs := range rec.Header() {
		if k == "Content-Length" {
			continue
		}
		w.Header()[k] = vs
	}
	w.Header().Set("Content-Length", strconv.Itoa(end))
	w.WriteHeader(rec.Code)
	w.Write(body[:end])
}

// stubHealth is a hand-driven remote.Health: per-replica availability set by
// the test, every observation recorded for inspection.
type stubHealth struct {
	down     []atomic.Bool
	observed []error // appended under no lock; tests drive fetches serially
}

func newStubHealth(n int) *stubHealth { return &stubHealth{down: make([]atomic.Bool, n)} }

func (h *stubHealth) Available(i int) bool { return !h.down[i].Load() }
func (h *stubHealth) Observe(i int, err error) {
	h.observed = append(h.observed, err)
}

// replicaCluster is a replicated 2-shard deployment: each shard's engine is
// exposed through TWO httptest servers (byte-identical replicas by
// construction), replica 0 of every shard wrapped in fault injectors (a
// whole-request 500 injector and a batch-reply truncator).
type replicaCluster struct {
	groups  []*remote.Group
	flaky   []*flakyHandler    // per shard, wraps replica 0
	trunc   []*truncBatch      // per shard, wraps replica 0 under flaky
	clients [][]*remote.Client // per shard, [replica0, replica1]
	rrIdx   []*rrindex.Index
	irrIdx  []*irrindex.Index
	rrLocal *rrindex.Index
	sm      *shardmap.Map
}

func (c *replicaCluster) rrOwner(w int) *rrindex.Index {
	if w < 0 || w >= c.sm.NumTopics() {
		return nil
	}
	return c.rrIdx[c.sm.Owner(w)]
}

func (c *replicaCluster) irrOwner(w int) *irrindex.Index {
	if w < 0 || w >= c.sm.NumTopics() {
		return nil
	}
	return c.irrIdx[c.sm.Owner(w)]
}

// newReplicaCluster builds each shard as TWO httptest servers over ONE
// engine — replicas byte-identical by construction — with replica 0 behind
// the fault injector.
func newReplicaCluster(t *testing.T) *replicaCluster {
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
	if _, err := builder.BuildRRIndex(rrFull); err != nil {
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
	c := &replicaCluster{sm: sm}
	ctx := context.Background()
	for i := 0; i < shards; i++ {
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
		tb := &truncBatch{inner: mux}
		fh := &flakyHandler{inner: tb}
		srvA := httptest.NewServer(fh)
		t.Cleanup(srvA.Close)
		srvB := httptest.NewServer(mux)
		t.Cleanup(srvB.Close)
		c.flaky = append(c.flaky, fh)
		c.trunc = append(c.trunc, tb)
		reps := []*remote.Client{
			remote.NewClient(srvA.URL, srvA.Client()),
			remote.NewClient(srvB.URL, srvB.Client()),
		}
		c.clients = append(c.clients, reps)
		g := remote.NewGroup(reps, nil)
		c.groups = append(c.groups, g)
		rr, err := g.OpenRR(ctx)
		if err != nil {
			t.Fatal(err)
		}
		irr, err := g.OpenIRR(ctx)
		if err != nil {
			t.Fatal(err)
		}
		c.rrIdx = append(c.rrIdx, rr)
		c.irrIdx = append(c.irrIdx, irr)
	}
	if c.rrLocal, err = rrindex.Open(openSegmented(t, rrFull)); err != nil {
		t.Fatal(err)
	}
	return c
}

// openSegmented opens an index file for direct (local-truth) reads.
func openSegmented(t *testing.T, path string) diskio.Segmented {
	t.Helper()
	f, err := diskio.Open(path, diskio.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestGroupFailoverParity is the retried-fetch half of the failover
// invariant: with one replica of every shard dropping a burst of artifact
// fetches mid-run, spanning queries still return byte-identical seeds,
// marginals, and spreads to a directly opened full index — the Group
// re-issues each failed fetch on the surviving replica.
func TestGroupFailoverParity(t *testing.T) {
	c := newReplicaCluster(t)
	ctx := context.Background()
	for _, fh := range c.flaky {
		fh.failN.Store(4) // next 4 fetches on replica 0 of each shard fail
	}
	for _, q := range parityQueries() {
		want, err := c.rrLocal.Query(q)
		if err != nil {
			t.Fatalf("local rr %v: %v", q.Topics, err)
		}
		got, err := rrindex.QueryMultiCtx(ctx, c.rrOwner, q)
		if err != nil {
			t.Fatalf("failover rr %v: %v", q.Topics, err)
		}
		if !reflect.DeepEqual(got.Seeds, want.Seeds) ||
			!reflect.DeepEqual(got.Marginals, want.Marginals) ||
			got.EstSpread != want.EstSpread || got.NumRRSets != want.NumRRSets {
			t.Fatalf("rr %v under faults: (%v, %v, %v) != local (%v, %v, %v)", q.Topics,
				got.Seeds, got.Marginals, got.EstSpread,
				want.Seeds, want.Marginals, want.EstSpread)
		}
		gotIRR, err := irrindex.QueryMultiCtx(ctx, c.irrOwner, q)
		if err != nil {
			t.Fatalf("failover irr %v: %v", q.Topics, err)
		}
		if !reflect.DeepEqual(gotIRR.Marginals, got.Marginals) {
			t.Fatalf("%v: IRR marginals %v != RR marginals %v under faults",
				q.Topics, gotIRR.Marginals, got.Marginals)
		}
	}
	var retries, failovers int64
	for _, g := range c.groups {
		s := g.Stats()
		retries += s.Retries
		failovers += s.Failovers
	}
	if retries == 0 || failovers == 0 {
		t.Fatalf("injected faults produced retries=%d failovers=%d; want both > 0", retries, failovers)
	}
	// The spanning queries above must actually have traveled batched — the
	// parity and failover assertions are about the batch path, not a silent
	// per-unit fallback.
	var wire remote.WireStats
	for _, reps := range c.clients {
		for _, cl := range reps {
			wire = wire.Add(cl.Stats())
		}
	}
	if wire.BatchedUnits == 0 || wire.BatchedUnits <= wire.Fetches/2 {
		t.Fatalf("batching never engaged under faults: %d units over %d requests", wire.BatchedUnits, wire.Fetches)
	}
}

// TestGroupBatchTruncationFailover is the mid-batch half of the failover
// invariant: a replica that dies after delivering ONE reply record keeps that
// record used, and only the unserved remainder is re-issued to the survivor —
// with every payload byte-identical to a clean per-unit fetch.
func TestGroupBatchTruncationFailover(t *testing.T) {
	c := newReplicaCluster(t)
	ctx := context.Background()
	g := c.groups[0]
	// Keywords shard 0 owns, ordered so the batch's routing topic (reqs[0])
	// prefers replica 0 — the one armed to truncate.
	var topics []int
	for w := 0; w < c.sm.NumTopics(); w++ {
		if c.sm.Owner(w) != 0 {
			continue
		}
		if shardmap.Affinity(w, 2) == 0 {
			topics = append([]int{w}, topics...)
		} else {
			topics = append(topics, w)
		}
	}
	if len(topics) < 3 || shardmap.Affinity(topics[0], 2) != 0 {
		t.Skip("universe does not give shard 0 three keywords with a replica-0-affine first")
	}
	reqs := make([]artifact.Request, len(topics))
	want := make([][]byte, len(topics))
	for i, w := range topics {
		reqs[i] = artifact.Request{Unit: rrindex.UnitInv, Topic: w}
		b, _, err := g.Fetch(ctx, remote.KindRR, rrindex.UnitInv, w, 0)
		if err != nil {
			t.Fatalf("reference fetch topic %d: %v", w, err)
		}
		want[i] = b
	}
	before := g.Stats()
	survivorBefore := c.clients[0][1].Stats().BatchedUnits
	c.trunc[0].cut.Store(1)
	replies := g.FetchBatch(ctx, remote.KindRR, reqs)
	if got := c.trunc[0].hits.Load(); got != 1 {
		t.Fatalf("truncator fired %d times; want exactly 1 (batch routed to replica 0 once)", got)
	}
	for i, rep := range replies {
		if rep.Err != nil {
			t.Fatalf("unit %d (topic %d) failed despite a healthy survivor: %v", i, topics[i], rep.Err)
		}
		if !bytes.Equal(rep.Payload, want[i]) {
			t.Fatalf("unit %d (topic %d): truncated-batch payload differs from per-unit fetch", i, topics[i])
		}
	}
	after := g.Stats()
	if after.Retries == before.Retries || after.Failovers == before.Failovers {
		t.Fatalf("truncation produced no remainder retry: stats %+v -> %+v", before, after)
	}
	// The survivor's batch served exactly the remainder: every unit except
	// the one record the dying replica fully delivered.
	if bu := c.clients[0][1].Stats().BatchedUnits - survivorBefore; bu != int64(len(reqs)-1) {
		t.Fatalf("survivor served %d batched units; want the %d-unit remainder", bu, len(reqs)-1)
	}
}

// TestGroupOpensDegraded: a Group whose first replica is already dead still
// opens (the dir comes from the survivor) and serves every fetch — the
// router's "start degraded" path at the fetch layer.
func TestGroupOpensDegraded(t *testing.T) {
	base := newCluster(t, 0)
	ctx := context.Background()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadClient := remote.NewClient(dead.URL, dead.Client())
	dead.Close() // connection refused from now on
	// Put the dead replica at the dir fetch's affinity-preferred slot so the
	// open deterministically has to fail over.
	replicas := make([]*remote.Client, 2)
	pref := shardmap.Affinity(0, 2)
	replicas[pref] = deadClient
	replicas[1-pref] = base.clients[0]
	g := remote.NewGroup(replicas, nil)
	rr, err := g.OpenRR(ctx)
	if err != nil {
		t.Fatalf("open with a dead first replica: %v", err)
	}
	if kws := rr.Keywords(); len(kws) == 0 {
		t.Fatal("degraded open produced an empty index")
	}
	if s := g.Stats(); s.Retries == 0 || s.Failovers == 0 {
		t.Fatalf("degraded open counted retries=%d failovers=%d; want both > 0", s.Retries, s.Failovers)
	}
	if err := g.Validate(ctx, pref, remote.KindRR); err == nil || errors.Is(err, remote.ErrReplicaMismatch) {
		t.Fatalf("validating a dead replica: got %v, want a transport error", err)
	}
}

// TestGroupNotServedIsNotAFault: a not-served reply (name does not resolve)
// is a property of the byte-identical file, not of the replica that
// answered — the Group must return it immediately instead of hammering
// every replica.
func TestGroupNotServedIsNotAFault(t *testing.T) {
	c := newReplicaCluster(t)
	g := c.groups[0]
	if _, _, err := g.Fetch(context.Background(), remote.KindRR, "bogus", 0, 0); !errors.Is(err, remote.ErrNotServed) {
		t.Fatalf("bogus unit: got %v, want ErrNotServed", err)
	}
	if s := g.Stats(); s.Retries != 0 {
		t.Fatalf("a not-served reply was retried %d times across replicas", s.Retries)
	}
}

// TestGroupMismatchedReplicaRejected: a replica that answers but advertises
// a different index size is a fault, not a byte source — Validate names it
// ErrReplicaMismatch, and a Fetch forced onto it fails over to the replica
// holding the right file even when health reports that one down (fail-open).
func TestGroupMismatchedReplicaRejected(t *testing.T) {
	base := newCluster(t, 0)
	ctx := context.Background()
	good := base.clients[0]
	// A second "replica" re-serving the same shard-0 artifacts with the
	// advertised size header shifted: answers fine, claims a different file.
	tampered := httptest.NewServer(&sizeTamper{inner: proxyTo(t, good), delta: 7})
	defer tampered.Close()
	health := newStubHealth(2)
	health.down[1].Store(true) // keep the tampered replica out of the open
	g := remote.NewGroup([]*remote.Client{good, remote.NewClient(tampered.URL, tampered.Client())}, health)
	if _, err := g.OpenRR(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(ctx, 1, remote.KindRR); !errors.Is(err, remote.ErrReplicaMismatch) {
		t.Fatalf("validating the tampered replica: got %v, want ErrReplicaMismatch", err)
	}
	// Force fetches to prefer the tampered replica: the mismatch must read
	// as a fault and fail over to the "unavailable" good replica (fail-open).
	health.down[1].Store(false)
	health.down[0].Store(true)
	topics := base.sm.NumTopics()
	var sawMismatch bool
	for w := 0; w < topics; w++ {
		if base.sm.Owner(w) != 0 {
			continue
		}
		if shardmap.Affinity(w, 2) != 1 {
			continue // only keywords whose preferred replica is the tampered one
		}
		if _, _, err := g.Fetch(ctx, remote.KindRR, rrindex.UnitDir, w, 0); err != nil {
			t.Fatalf("fetch of topic %d with a mismatched preferred replica: %v", w, err)
		}
		sawMismatch = true
	}
	if !sawMismatch {
		t.Skip("no shard-0 keyword prefers replica 1 in this universe")
	}
	if s := g.Stats(); s.Failovers == 0 {
		t.Fatalf("mismatched replica produced no failovers: %+v", s)
	}
	var gotMismatch bool
	for _, err := range health.observed {
		if errors.Is(err, remote.ErrReplicaMismatch) {
			gotMismatch = true
		}
	}
	if !gotMismatch {
		t.Fatal("health never observed the ErrReplicaMismatch fault")
	}
}

// proxyTo re-serves another node's artifacts through the batch handler — a
// stand-in for a second server over the same files when only a client
// handle is available.
func proxyTo(t *testing.T, c *remote.Client) http.Handler {
	t.Helper()
	return remote.NewBatchHandler(clientSource{c})
}

// clientSource is a remote.Source that answers every unit with a one-unit
// fetch from another node.
type clientSource struct{ c *remote.Client }

func (s clientSource) ArtifactBytes(kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	b, size, err := s.c.Fetch(context.Background(), kind, unit, topic, aux)
	if errors.Is(err, remote.ErrNotServed) {
		err = fmt.Errorf("%w: %v", remote.ErrNoArtifact, err)
	}
	return b, size, err
}
