package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"kbtim/internal/artifact"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/objcache"
	"kbtim/internal/remote"
	"kbtim/internal/rrindex"
	"kbtim/internal/shardmap"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// Child-span layers of a traced query. The query span itself belongs to
// rrindex or irrindex; its self time is what these spans do not cover.
const (
	layerDisk   = iota // diskio reads through the byte tier
	layerRemote        // remote artifact fetches
	numLayers
)

type span struct {
	layer      int
	start, end time.Duration // since the tracer's base
	bytes      int64
}

// tracer keeps one query's child spans in memory.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	on    bool
	spans []span
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) record(layer int, start time.Duration, n int) {
	end := t.now()
	t.mu.Lock()
	if t.on {
		t.spans = append(t.spans, span{layer: layer, start: start, end: end, bytes: int64(n)})
	}
	t.mu.Unlock()
}

// spanReader records a diskio span around every segment read an index
// makes through the byte tier.
type spanReader struct {
	diskio.Segmented
	tr *tracer
}

func (s spanReader) ReadSegment(off, length int64) ([]byte, error) {
	start := s.tr.now()
	b, err := s.Segmented.ReadSegment(off, length)
	s.tr.record(layerDisk, start, len(b))
	return b, err
}

// spanFetcher is a remote-backed index's artifact source: it fetches from
// one backend, like the router's own, and records a remote span per round
// trip.
type spanFetcher struct {
	c    *remote.Client
	kind string
	tr   *tracer
}

func (f spanFetcher) Fetch(ctx context.Context, unit string, topic int, aux int64) ([]byte, error) {
	start := f.tr.now()
	b, _, err := f.c.Fetch(ctx, f.kind, unit, topic, aux)
	f.tr.record(layerRemote, start, len(b))
	return b, err
}

func (f spanFetcher) FetchBatch(ctx context.Context, reqs []artifact.Request) []artifact.Reply {
	start := f.tr.now()
	out := make([]artifact.Reply, len(reqs))
	replies, _, err := f.c.FetchBatch(ctx, f.kind, reqs)
	copy(out, replies)
	n := 0
	for _, r := range replies {
		n += len(r.Payload)
	}
	f.tr.record(layerRemote, start, n)
	if err != nil {
		// Serve the unanswered remainder unit by unit, as the router does.
		for i := len(replies); i < len(reqs); i++ {
			b, ferr := f.Fetch(ctx, reqs[i].Unit, reqs[i].Topic, reqs[i].Aux)
			out[i] = artifact.Reply{Payload: b, Err: ferr}
		}
	}
	return out
}

// replica is an in-process copy of the workload's query path, built from
// the layers' public functions with the serving processes' cache budgets.
type replica struct {
	rr     func(int) *rrindex.Index
	irr    func(int) *irrindex.Index
	local  bool // single local index per kind (Plan applies)
	caches []*objcache.Cache
	files  []*diskio.File
	hc     *http.Client // remote fetches (router-span)
}

func (r *replica) close() {
	for _, f := range r.files {
		f.Close()
	}
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
}

func (r *replica) evictions() int64 {
	var n int64
	for _, c := range r.caches {
		n += c.Stats().Evictions
	}
	return n
}

func (r *replica) newCache(budget int64) *objcache.Cache {
	if budget <= 0 {
		return nil
	}
	c := objcache.NewSharded(budget, 0)
	r.caches = append(r.caches, c)
	return c
}

// openLocal opens one index file behind the byte tier, as kbtim-serve
// does; with a tracer, reads through the byte tier go through a spanReader.
func (r *replica) openLocal(path string, byteBudget int64, tr *tracer) (diskio.Segmented, error) {
	f, err := diskio.Open(path, diskio.NewCounter())
	if err != nil {
		return nil, err
	}
	r.files = append(r.files, f)
	var seg diskio.Segmented = f
	if byteBudget > 0 {
		seg = diskio.NewCachedReader(f, byteBudget)
	}
	if tr != nil {
		seg = spanReader{Segmented: seg, tr: tr}
	}
	return seg, nil
}

func openReplica(ctx context.Context, c *cluster, w *workload, st *serverStats, tr *tracer) (*replica, error) {
	r := &replica{}
	if !w.router {
		r.local = true
		if c.rr != "" {
			seg, err := r.openLocal(c.rr, st.RRCache.BudgetBytes, tr)
			if err != nil {
				return nil, err
			}
			idx, err := rrindex.Open(seg)
			if err != nil {
				r.close()
				return nil, err
			}
			if dc := r.newCache(st.RRDecoded.BudgetBytes); dc != nil {
				idx.SetDecodedCache(dc)
			}
			r.rr = func(int) *rrindex.Index { return idx }
		}
		if c.irr != "" {
			seg, err := r.openLocal(c.irr, st.IRRCache.BudgetBytes, tr)
			if err != nil {
				r.close()
				return nil, err
			}
			idx, err := irrindex.Open(seg)
			if err != nil {
				r.close()
				return nil, err
			}
			if dc := r.newCache(st.IRRDecoded.BudgetBytes); dc != nil {
				idx.SetDecodedCache(dc)
			}
			r.irr = func(int) *irrindex.Index { return idx }
		}
		return r, nil
	}

	// Router: one remote-backed index per backend and kind, each with its
	// share of the router's decoded budget, routed by the same hash map.
	backends := c.servers[1:]
	r.hc = &http.Client{Timeout: 30 * time.Second, Transport: remote.NewTransport(0)}
	var err error
	rrs := make([]*rrindex.Index, len(backends))
	irrs := make([]*irrindex.Index, len(backends))
	for i, b := range backends {
		cl := remote.NewClient(b.url, r.hc)
		if rrs[i], err = cl.OpenRR(ctx); err != nil {
			r.close()
			return nil, err
		}
		if tr != nil {
			rrs[i].SetFetcher(spanFetcher{c: cl, kind: remote.KindRR, tr: tr})
		}
		if dc := r.newCache(st.RRDecoded.BudgetBytes / int64(len(backends))); dc != nil {
			rrs[i].SetDecodedCache(dc)
		}
		if irrs[i], err = cl.OpenIRR(ctx); err != nil {
			r.close()
			return nil, err
		}
		if tr != nil {
			irrs[i].SetFetcher(spanFetcher{c: cl, kind: remote.KindIRR, tr: tr})
		}
		if dc := r.newCache(st.IRRDecoded.BudgetBytes / int64(len(backends))); dc != nil {
			irrs[i].SetDecodedCache(dc)
		}
	}
	r.rr = func(w int) *rrindex.Index {
		if w < 0 || w >= dataSpec.topics {
			return nil
		}
		return rrs[routerShards.Owner(w)]
	}
	r.irr = func(w int) *irrindex.Index {
		if w < 0 || w >= dataSpec.topics {
			return nil
		}
		return irrs[routerShards.Owner(w)]
	}
	return r, nil
}

// routerShards is router-span's keyword→backend map: the hash assignment
// kbtim-build -shards and the router both use.
var routerShards, _ = shardmap.New(routerBackends, shardmap.Hash, dataSpec.topics)

// isScattered reports whether the router scatters a query over topics
// rather than proxying it whole to one backend.
func isScattered(topics []int) bool { return len(routerShards.Shards(topics)) > 1 }

// run answers one request on the replica's query path; emit receives each
// seed as the path certifies it.
func (r *replica) run(ctx context.Context, req request, emit wris.EmitFunc) (answer, error) {
	q := topic.Query{Topics: req.Topics, K: req.K}
	so := wris.StreamOptions{Emit: emit}
	if req.Strategy == "rr" {
		res, err := rrindex.QueryMultiStreamCtx(ctx, r.rr, q, so)
		if err != nil {
			return answer{}, err
		}
		return answer{seeds: res.Seeds, marg: res.Marginals}, nil
	}
	res, err := irrindex.QueryMultiStreamCtx(ctx, r.irr, q, so)
	if err != nil {
		return answer{}, err
	}
	return answer{seeds: res.Seeds, marg: res.Marginals}, nil
}

// plan times the index's Plan call for req (local indexes only).
func (r *replica) plan(req request) (time.Duration, error) {
	q := topic.Query{Topics: req.Topics, K: req.K}
	start := time.Now()
	var err error
	if req.Strategy == "rr" {
		_, err = r.rr(0).Plan(q)
	} else {
		_, err = r.irr(0).Plan(q)
	}
	return time.Since(start), err
}

// queryLedger is one traced query's time, split by layer.
type queryLedger struct {
	strategy  string
	span      time.Duration
	layer     [numLayers]time.Duration // wall time the layer's spans cover
	self      time.Duration            // span minus the time any child span covers
	plan      time.Duration
	firstEmit time.Duration // query start → first seed
	solve     time.Duration // last artifact load (or start) → last seed
	bytes     int64         // bytes read or fetched: the decoders' input
}

// reconcileErr is how far the traced ledgers, summed over the replayed
// queries, miss the same queries' spans on the plain replica, which records
// nothing, as a share of the latter. Self time is the residual of each
// query span, so a ledger sums to its own span by construction; what this
// checks is that the ledger accounts for the untraced query path, and not
// for time the decorators add or displace.
func reconcileErr(ledgers []queryLedger, plain []time.Duration) float64 {
	var traced, untraced time.Duration
	for i, l := range ledgers {
		traced += l.self
		for _, d := range l.layer {
			traced += d
		}
		untraced += plain[i]
	}
	if untraced <= 0 {
		return 0
	}
	return math.Abs(float64(traced-untraced)) / float64(untraced)
}

// covered returns how much of [start, end] the spans cover, counting time
// that concurrent spans share once. spans must be sorted by start.
func covered(spans []span, start, end time.Duration) time.Duration {
	var total, curS, curE time.Duration
	for _, s := range spans {
		cs, ce := max(s.start, start), min(s.end, end)
		if ce <= cs {
			continue
		}
		if cs > curE {
			total += curE - curS
			curS, curE = cs, ce
		} else {
			curE = max(curE, ce)
		}
	}
	return total + curE - curS
}

// ledgerOf builds a query's ledger from its span and child spans. A layer's
// time is the wall time its spans cover: the router fetches from both
// backends at once, and the query waits for the pair, not their sum.
func ledgerOf(strategy string, start, end time.Duration, spans []span, emits []time.Duration) queryLedger {
	l := queryLedger{strategy: strategy, span: end - start}
	slices.SortFunc(spans, func(a, b span) int { return int(a.start - b.start) })
	lastLoad := start
	var byLayer [numLayers][]span
	for _, s := range spans {
		l.bytes += s.bytes
		lastLoad = max(lastLoad, s.end)
		byLayer[s.layer] = append(byLayer[s.layer], s)
	}
	for i, ls := range byLayer {
		l.layer[i] = covered(ls, start, end)
	}
	l.self = l.span - covered(spans, start, end)
	if len(emits) > 0 {
		l.firstEmit = emits[0] - start
		l.solve = emits[len(emits)-1] - lastLoad
	}
	return l
}

// traceResult is what the traced run reports.
type traceResult struct {
	ledgers    []queryLedger
	plainSpans []time.Duration // the plain replica's spans, one per ledger
	evictions  int64
	allocBytes uint64
}

// replay answers warm then timed, sequentially, on two fresh replicas of
// the query path, a plain one and a traced one, each query on both. It
// records the traced replica's ledger for every timed query and checks
// every answer against the reference.
func replay(ctx context.Context, c *cluster, w *workload, st *serverStats, warm, timed []request,
	answers map[string]answer) (*traceResult, error) {
	tr := &tracer{base: time.Now()}
	plain, err := openReplica(ctx, c, w, st, nil)
	if err != nil {
		return nil, fmt.Errorf("open in-process replica: %w", err)
	}
	defer plain.close()
	traced, err := openReplica(ctx, c, w, st, tr)
	if err != nil {
		return nil, fmt.Errorf("open traced in-process replica: %w", err)
	}
	defer traced.close()
	for _, req := range warm {
		for _, rep := range []*replica{plain, traced} {
			if _, err := rep.run(ctx, req, nil); err != nil {
				return nil, fmt.Errorf("replay %s: %w", req.key(), err)
			}
		}
	}
	out := &traceResult{}
	ev0 := traced.evictions()
	emits := make([]time.Duration, 0, 64)
	emit := func(uint32, int, float64) { emits = append(emits, tr.now()) }
	check := func(req request, got answer, err error) error {
		if err != nil {
			return fmt.Errorf("replay %s: %w", req.key(), err)
		}
		if want := answers[req.key()]; !slices.Equal(got.seeds, want.seeds) || !slices.Equal(got.marg, want.marg) {
			return fmt.Errorf("in-process replay of %s differs from the reference", req.key())
		}
		return nil
	}
	// Both replicas take the same steps per query, so that they differ only
	// by the decorators; only the traced one keeps its spans.
	var ms0, ms1 runtime.MemStats
	step := func(rep *replica, req request) error {
		keep := rep == traced
		var plan time.Duration
		var err error
		if rep.local {
			if plan, err = rep.plan(req); err != nil {
				return fmt.Errorf("plan %s: %w", req.key(), err)
			}
		}
		emits = emits[:0]
		runtime.ReadMemStats(&ms0)
		tr.mu.Lock()
		tr.spans, tr.on = tr.spans[:0], keep
		tr.mu.Unlock()
		start := tr.now()
		got, err := rep.run(ctx, req, emit)
		end := tr.now()
		tr.mu.Lock()
		tr.on = false
		spans := tr.spans
		tr.mu.Unlock()
		runtime.ReadMemStats(&ms1)
		if err := check(req, got, err); err != nil {
			return err
		}
		if !keep {
			out.plainSpans = append(out.plainSpans, end-start)
			return nil
		}
		out.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		l := ledgerOf(req.Strategy, start, end, spans, emits)
		l.plan = plan
		out.ledgers = append(out.ledgers, l)
		return nil
	}
	for i, req := range timed {
		// Whichever replica goes second finds the backends' and the
		// machine's caches warmer, so the order alternates.
		order := [2]*replica{plain, traced}
		if i%2 == 1 {
			order = [2]*replica{traced, plain}
		}
		for _, rep := range order {
			if err := step(rep, req); err != nil {
				return nil, err
			}
		}
	}
	out.evictions = traced.evictions() - ev0
	return out, nil
}

func scatteredOnly(reqs []request) []request {
	var out []request
	for _, r := range reqs {
		if isScattered(r.Topics) {
			out = append(out, r)
		}
	}
	return out
}
