package kbtim

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/objcache"
	"kbtim/internal/prop"
	"kbtim/internal/remote"
	"kbtim/internal/rng"
	"kbtim/internal/rrindex"
	"kbtim/internal/wris"
)

// Options tunes an Engine. The zero value of every field selects a sensible
// default (ε=0.1, K=100, IC model, compression on, δ=100).
type Options struct {
	// Epsilon is the ε of the (1−1/e−ε) guarantee; θ scales with 1/ε².
	// The paper uses 0.1; laptop-scale runs often prefer 0.3–0.5.
	Epsilon float64
	// K is the system cap on Q.k the offline indexes are sized for (§4.2).
	K int
	// Model selects IC (default) or LT propagation.
	Model Model
	// Compress toggles inverted-list compression. Defaults to true (the
	// paper's adopted configuration after Table 4); set CompressOff to
	// disable.
	CompressOff bool
	// PartitionSize is the IRR δ (default 100, as in the paper).
	PartitionSize int
	// ThetaHatSizing switches index sizing to the conservative θ̂_w bound
	// of Eqn 8 (Table 3's ablation). Default is the improved θ_w (Eqn 10).
	ThetaHatSizing bool
	// MaxThetaPerKeyword caps per-keyword sample counts (0 = uncapped).
	// Capping keeps laptop builds bounded but voids the formal guarantee
	// when hit; Result.ThetaCapped reports it.
	MaxThetaPerKeyword int
	// PilotSets is the sampling budget of each OPT estimation (default
	// 4096).
	PilotSets int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Workers bounds sampling parallelism (0 = GOMAXPROCS).
	Workers int
	// CacheBytes is the byte budget of the in-memory segment cache placed
	// in front of each opened index file (0 = no cache, every query reads
	// from disk). Repeated-keyword workloads served by one Engine benefit
	// the most; Result.IO reports per-query hits and misses and
	// Engine.CacheStats the cache-wide view.
	CacheBytes int64
	// DecodedCacheBytes is the byte budget of the decoded-object cache
	// attached to each opened index (0 = none). Where CacheBytes caches raw
	// segment bytes, this tier caches the PARSED artifacts queries consume
	// (RR-set batch prefixes, inverted tables, IP tables, partition
	// blocks) with singleflight loading, so a hot keyword skips the disk
	// AND the decode. Result.IO reports per-query decoded hits/misses and
	// Engine.DecodedCacheStats the cache-wide view. The two tiers compose:
	// a decoded miss still reads through the segment cache.
	DecodedCacheBytes int64
	// CacheShards is the shard count of the decoded-object cache (rounded
	// up to a power of two; 0 = a power of two near GOMAXPROCS). Each shard
	// has its own lock, byte budget, and singleflight group, so concurrent
	// queries on different keywords never contend on one cache mutex. Only
	// meaningful with DecodedCacheBytes > 0.
	CacheShards int
	// QueryParallelism bounds how many artifacts ONE query fetches and
	// decodes concurrently (0 or 1 = fully sequential). For QueryRR it
	// parallelizes the per-keyword set-prefix and inverted-table loads; for
	// QueryIRR it parallelizes IP-table loading and speculatively prefetches
	// each keyword's next partition while the current NRA round runs. Seeds
	// and spreads are identical either way; only latency and the I/O shape
	// change (IRR speculation may read partitions the query ends up not
	// needing).
	QueryParallelism int
}

func (o Options) wrisConfig() wris.Config {
	cfg := wris.DefaultConfig()
	if o.Epsilon != 0 {
		cfg.Epsilon = o.Epsilon
	}
	if o.K != 0 {
		cfg.K = o.K
	}
	if o.PilotSets != 0 {
		cfg.PilotSets = o.PilotSets
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.MaxThetaPerKeyword = o.MaxThetaPerKeyword
	cfg.Workers = o.Workers
	return cfg
}

func (o Options) compression() codec.Compression {
	if o.CompressOff {
		return codec.Raw
	}
	return codec.Delta
}

func (o Options) sizing() wris.SizingMode {
	if o.ThetaHatSizing {
		return wris.SizeThetaHat
	}
	return wris.SizeTheta
}

// IOStats summarizes the logical disk activity of one index query. The
// read counters cover reads that reached the index file; segments served
// from the Engine's segment cache (Options.CacheBytes) appear only in
// CacheHits, and artifacts served from the decoded-object cache
// (Options.DecodedCacheBytes) only in DecodedHits — a decoded hit incurs
// neither a read nor a decode.
type IOStats struct {
	SequentialReads int64
	RandomReads     int64
	BytesRead       int64
	CacheHits       int64
	CacheMisses     int64
	DecodedHits     int64
	DecodedMisses   int64
}

// Total returns the total logical read operations (the Table 6 metric).
// Cache hits are excluded: they cost no I/O.
func (s IOStats) Total() int64 { return s.SequentialReads + s.RandomReads }

// Result reports one query run, for any of the processing strategies.
type Result struct {
	// Seeds are the selected seed users, in selection order.
	Seeds []Seed
	// Marginals[i] is the number of newly covered RR sets when Seeds[i] was
	// picked — the greedy trace Theorem 3 proves identical between the RR
	// and IRR strategies, and the cross-shard/cross-node parity tests pin
	// across deployments (nil for the online strategies, which report no
	// trace).
	Marginals []int
	// EstSpread is the estimated expected targeted influence E[I^Q(S)]
	// in tf-idf units (vertex counts for QueryRIS).
	EstSpread float64
	// NumRRSets is the number of RR sets examined/loaded (the Figures 5–7
	// series).
	NumRRSets int
	// ThetaCapped is true when MaxThetaPerKeyword truncated sampling,
	// voiding the formal guarantee for this run.
	ThetaCapped bool
	// IO is the disk activity (zero for the online strategies).
	IO IOStats
	// PartitionsLoaded counts IRR partition fetches (zero elsewhere).
	PartitionsLoaded int
	// Partial is true when a streaming deadline (StreamOptions.Deadline)
	// stopped the query before the full answer: Seeds is the certified
	// prefix selected so far and EstSpread its spread — a lower bound on
	// the full answer's, never a guess.
	Partial bool
	// Elapsed is the wall-clock processing time.
	Elapsed time.Duration
}

// EmitFunc receives one certified seed the moment a query path selects it:
// the seed, its marginal coverage, and the running spread lower bound of the
// emitted prefix. Called synchronously on the query goroutine, in selection
// order; the concatenated emissions always equal the returned Result's
// Seeds/Marginals prefix exactly.
type EmitFunc func(seed Seed, marginal int, spreadLB float64)

// StreamOptions carries the anytime-query hooks of the streaming entry
// points (QueryRRStreamCtx / QueryIRRStreamCtx, and their Sharded
// counterparts). The zero value means "batch": no emission, no deadline —
// QueryRRCtx is literally QueryRRStreamCtx with zero options.
type StreamOptions struct {
	// Emit, when non-nil, streams each seed as it is certified.
	Emit EmitFunc
	// Deadline, when non-zero, turns timeout into degradation: once it
	// passes, the query returns the best certified prefix with
	// Result.Partial=true instead of an error.
	Deadline time.Time
}

// internal converts to the index layers' option type (Seed is an alias of
// uint32, so the sink passes through unwrapped).
func (so StreamOptions) internal() wris.StreamOptions {
	return wris.StreamOptions{Emit: wris.EmitFunc(so.Emit), Deadline: so.Deadline}
}

// BuildReport summarizes an index build (Tables 3–5).
type BuildReport struct {
	// Bytes is the index file size.
	Bytes int64
	// SumTheta is Σ_w θ_w, the total number of pre-sampled RR sets.
	SumTheta int64
	// MeanRRSetSize is the average RR-set cardinality.
	MeanRRSetSize float64
	// Keywords is the number of indexed keywords.
	Keywords int
	// Capped counts keywords whose θ_w hit MaxThetaPerKeyword.
	Capped int
	// Elapsed is the build wall-clock time.
	Elapsed time.Duration
}

// indexHandle is one attached index file with everything hanging off it:
// the counted file, the optional cache tiers, and the parsed index (exactly
// one of rr/irr is non-nil). Handles are reference-counted: the Engine
// holds one reference while the handle is attached, and every in-flight
// query holds one for its duration, so OpenRRIndex/OpenIRRIndex/Close swap
// the Engine's pointer instantly and the file closes only when the last
// query using it finishes. This is what lets queries proceed while a swap
// (or another slow query) is in progress — there is no reader/writer lock
// held across query execution for a pending writer to starve.
type indexHandle struct {
	refs  atomic.Int64
	file  *diskio.File
	cache *diskio.CachedReader
	dec   *objcache.Cache
	rr    *rrindex.Index
	irr   *irrindex.Index
}

// release drops one reference; the last release closes the file and
// returns its error (earlier releases return nil).
func (h *indexHandle) release() error {
	if h == nil {
		return nil
	}
	if h.refs.Add(-1) == 0 {
		return h.file.Close()
	}
	return nil
}

// Engine answers KB-TIM queries over one dataset. Create with NewEngine,
// then either query online (QueryWRIS) or build/open a disk index and use
// QueryRR / QueryIRR.
//
// An Engine is safe for concurrent use: any number of goroutines may issue
// QueryRR/QueryIRR (and the online queries) against one shared Engine.
// Every query works on private scratch state and a per-query I/O scope, and
// index files are read with positional reads only. OpenRRIndex,
// OpenIRRIndex, and Close may also be called concurrently with queries and
// are hot swaps: a query pins the index handle it started on (reference
// counted, closed when its last user finishes) and the swap replaces the
// Engine's handle without waiting, so no query ever stalls behind a pending
// Open/Close and vice versa. Close is idempotent; after Close, new queries
// fail immediately while in-flight ones finish on their pinned handles.
type Engine struct {
	ds    *Dataset
	opts  Options
	model prop.Model
	cfg   wris.Config

	// mu guards only the handle pointers and the closed flag, for O(1)
	// pointer swaps and acquisitions — it is never held across a query or
	// any I/O, so it cannot be the writer-starvation lock the previous
	// whole-query RWMutex was.
	mu     sync.Mutex //kbtim:lockrank 30
	closed bool
	rrH    *indexHandle
	irrH   *indexHandle
}

// acquireRR pins the current RR handle for one query.
func (e *Engine) acquireRR() (*indexHandle, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("kbtim: engine is closed")
	}
	if e.rrH == nil {
		return nil, fmt.Errorf("kbtim: no RR index opened (call OpenRRIndex)")
	}
	e.rrH.refs.Add(1)
	return e.rrH, nil
}

// acquireIRR pins the current IRR handle for one query.
func (e *Engine) acquireIRR() (*indexHandle, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("kbtim: engine is closed")
	}
	if e.irrH == nil {
		return nil, fmt.Errorf("kbtim: no IRR index opened (call OpenIRRIndex)")
	}
	e.irrH.refs.Add(1)
	return e.irrH, nil
}

// NewEngine validates options and binds them to a dataset.
func NewEngine(ds *Dataset, opts Options) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("kbtim: nil dataset")
	}
	model, err := opts.Model.internal()
	if err != nil {
		return nil, err
	}
	cfg := opts.wrisConfig()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.PartitionSize < 0 {
		return nil, fmt.Errorf("kbtim: negative partition size")
	}
	if opts.CacheShards < 0 {
		return nil, fmt.Errorf("kbtim: negative cache shard count")
	}
	if opts.QueryParallelism < 0 {
		return nil, fmt.Errorf("kbtim: negative query parallelism")
	}
	return &Engine{ds: ds, opts: opts, model: model, cfg: cfg}, nil
}

// Close detaches any open index files and marks the engine closed; further
// Close calls are no-ops (double Close returns nil). Queries already in
// flight finish on their pinned handles — each file actually closes when
// its last user releases it, and a close error surfacing on such a deferred
// release is dropped (the files are read-only, so nothing is lost).
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	rrH, irrH := e.rrH, e.irrH
	e.rrH, e.irrH = nil, nil
	e.mu.Unlock()
	first := rrH.release()
	if err := irrH.release(); err != nil && first == nil {
		first = err
	}
	return first
}

// BuildRRIndex builds the disk-based RR index (Algorithm 1) at path.
func (e *Engine) BuildRRIndex(path string) (*BuildReport, error) {
	return e.BuildRRIndexTopics(path, nil)
}

// BuildRRIndexTopics builds an RR index restricted to the given topic IDs
// (nil = every topic with positive mass, i.e. BuildRRIndex). Each keyword's
// θ_w planning and RR-set sampling are seeded by the topic ID alone, so a
// keyword's payload is bit-identical whether it is built into a full index
// or a subset one — the property keyword-sharded serving relies on for
// exact result parity.
func (e *Engine) BuildRRIndexTopics(path string, topics []int) (*BuildReport, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	stats, err := rrindex.Build(f, e.ds.graph, e.model, e.ds.profiles, e.cfg, rrindex.BuildOptions{
		Compression: e.opts.compression(),
		Sizing:      e.opts.sizing(),
		Topics:      topics,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return buildReport(stats.Keywords, stats.TotalBytes, stats.SumTheta(), stats.MeanRRSize(), stats.Elapsed,
		func(k rrindex.KeywordStats) bool { return k.Capped }), nil
}

// BuildIRRIndex builds the incremental IRR index (Algorithm 3) at path.
func (e *Engine) BuildIRRIndex(path string) (*BuildReport, error) {
	return e.BuildIRRIndexTopics(path, nil)
}

// BuildIRRIndexTopics builds an IRR index restricted to the given topic IDs
// (nil = every topic with positive mass). See BuildRRIndexTopics for the
// per-keyword determinism guarantee sharded serving builds on.
func (e *Engine) BuildIRRIndexTopics(path string, topics []int) (*BuildReport, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	stats, err := irrindex.Build(f, e.ds.graph, e.model, e.ds.profiles, e.cfg, irrindex.BuildOptions{
		Compression:   e.opts.compression(),
		Sizing:        e.opts.sizing(),
		PartitionSize: e.opts.PartitionSize,
		Topics:        topics,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return buildReport(stats.Keywords, stats.TotalBytes, stats.SumTheta(), stats.MeanRRSize(), stats.Elapsed,
		func(k irrindex.KeywordStats) bool { return k.Capped }), nil
}

// buildReport assembles the public report from either index's build stats.
func buildReport[K any](keywords []K, bytes, sumTheta int64, meanRR float64, elapsed time.Duration, capped func(K) bool) *BuildReport {
	n := 0
	for _, k := range keywords {
		if capped(k) {
			n++
		}
	}
	return &BuildReport{
		Bytes:         bytes,
		SumTheta:      sumTheta,
		MeanRRSetSize: meanRR,
		Keywords:      len(keywords),
		Capped:        n,
		Elapsed:       elapsed,
	}
}

// IndexableTopics returns the sorted topic IDs a full index build would
// cover: every topic with positive relevance mass. Sharded deployments
// partition exactly this universe (via internal/shardmap) so the per-shard
// builds and the serve-time router agree on ownership.
func (e *Engine) IndexableTopics() []int {
	var topics []int
	for t := 0; t < e.ds.NumTopics(); t++ {
		if e.ds.profiles.TFSum(t) > 0 {
			topics = append(topics, t)
		}
	}
	return topics
}

// openHandle opens path into a fresh handle (refs=1, the caller's
// reference), wiring in the cache tiers Options ask for.
func (e *Engine) openHandle(path string) (*indexHandle, diskio.Segmented, error) {
	f, err := diskio.Open(path, diskio.NewCounter())
	if err != nil {
		return nil, nil, err
	}
	h := &indexHandle{file: f}
	h.refs.Store(1)
	var r diskio.Segmented = f
	if e.opts.CacheBytes > 0 {
		h.cache = diskio.NewCachedReader(f, e.opts.CacheBytes)
		r = h.cache
	}
	if e.opts.DecodedCacheBytes > 0 {
		h.dec = objcache.NewSharded(e.opts.DecodedCacheBytes, e.opts.CacheShards)
	}
	return h, r, nil
}

// attach swaps a fully constructed handle into *slot, returning the handle
// it replaced (not yet released). Fails without attaching when the engine
// is closed.
func (e *Engine) attach(slot **indexHandle, h *indexHandle) (*indexHandle, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("kbtim: engine is closed")
	}
	old := *slot
	*slot = h
	return old, nil
}

// OpenRRIndex attaches a previously built RR index for QueryRR, replacing
// any index attached before. The swap is immediate — queries in flight on
// the replaced index finish undisturbed on their pinned handle, and its
// file closes when the last of them releases it. A close error is reported
// when the replaced index was idle (the swap itself was its last user);
// the new index stays attached either way.
func (e *Engine) OpenRRIndex(path string) error {
	h, r, err := e.openHandle(path)
	if err != nil {
		return err
	}
	h.rr, err = rrindex.Open(r)
	if err != nil {
		h.file.Close()
		return err
	}
	if h.dec != nil {
		h.rr.SetDecodedCache(h.dec)
	}
	h.rr.SetQueryParallelism(e.opts.QueryParallelism)
	old, err := e.attach(&e.rrH, h)
	if err != nil {
		h.file.Close()
		return err
	}
	if cerr := old.release(); cerr != nil {
		return fmt.Errorf("kbtim: closing replaced RR index file: %w", cerr)
	}
	return nil
}

// OpenIRRIndex attaches a previously built IRR index for QueryIRR,
// replacing any index attached before. Swap semantics are identical to
// OpenRRIndex's.
func (e *Engine) OpenIRRIndex(path string) error {
	h, r, err := e.openHandle(path)
	if err != nil {
		return err
	}
	h.irr, err = irrindex.Open(r)
	if err != nil {
		h.file.Close()
		return err
	}
	if h.dec != nil {
		h.irr.SetDecodedCache(h.dec)
	}
	h.irr.SetQueryParallelism(e.opts.QueryParallelism)
	old, err := e.attach(&e.irrH, h)
	if err != nil {
		h.file.Close()
		return err
	}
	if cerr := old.release(); cerr != nil {
		return fmt.Errorf("kbtim: closing replaced IRR index file: %w", cerr)
	}
	return nil
}

// CacheStats reports the segment-cache counters of the attached RR and IRR
// indexes (zero values when no cache is configured or no index is open).
func (e *Engine) CacheStats() (rr, irr diskio.CacheStats) {
	e.mu.Lock()
	rrH, irrH := e.rrH, e.irrH
	e.mu.Unlock()
	if rrH != nil && rrH.cache != nil {
		rr = rrH.cache.Stats()
	}
	if irrH != nil && irrH.cache != nil {
		irr = irrH.cache.Stats()
	}
	return rr, irr
}

// DecodedCacheStats reports the decoded-object-cache counters of the
// attached RR and IRR indexes (zero values when Options.DecodedCacheBytes
// is unset or no index is open).
func (e *Engine) DecodedCacheStats() (rr, irr objcache.Stats) {
	e.mu.Lock()
	rrH, irrH := e.rrH, e.irrH
	e.mu.Unlock()
	if rrH != nil && rrH.dec != nil {
		rr = rrH.dec.Stats()
	}
	if irrH != nil && irrH.dec != nil {
		irr = irrH.dec.Stats()
	}
	return rr, irr
}

// IndexedKeywords returns the sorted topic IDs present in the attached
// index (IRR preferred, else RR; nil when no index is open). Serving
// front-ends use it to expose the queryable keyword universe.
func (e *Engine) IndexedKeywords() []int {
	e.mu.Lock()
	rrH, irrH := e.rrH, e.irrH
	e.mu.Unlock()
	var kws []int
	switch {
	case irrH != nil:
		kws = irrH.irr.Keywords()
	case rrH != nil:
		kws = rrH.rr.Keywords()
	default:
		return nil
	}
	sort.Ints(kws)
	return kws
}

// QueryWRIS answers q with online weighted sampling (§3.2) — the
// theoretically clean but slow baseline.
func (e *Engine) QueryWRIS(q Query) (*Result, error) {
	r, err := wris.Query(e.ds.graph, e.model, e.ds.profiles, q.internal(), e.cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Seeds:       r.Seeds,
		EstSpread:   r.EstSpread,
		NumRRSets:   r.NumRRSets,
		ThetaCapped: r.ThetaCapped,
		Elapsed:     r.Elapsed,
	}, nil
}

// QueryRIS answers a classic non-targeted IM query (top-k influencers
// regardless of the advertisement) — the Table 8 comparator.
func (e *Engine) QueryRIS(k int) (*Result, error) {
	r, err := wris.QueryRIS(e.ds.graph, e.model, k, e.cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Seeds:       r.Seeds,
		EstSpread:   r.EstSpread,
		NumRRSets:   r.NumRRSets,
		ThetaCapped: r.ThetaCapped,
		Elapsed:     r.Elapsed,
	}, nil
}

func ioStats(s diskio.Stats, decHits, decMisses int64) IOStats {
	return IOStats{
		SequentialReads: s.SequentialReads,
		RandomReads:     s.RandomReads,
		BytesRead:       s.BytesRead,
		CacheHits:       s.CacheHits,
		CacheMisses:     s.CacheMisses,
		DecodedHits:     decHits,
		DecodedMisses:   decMisses,
	}
}

// QueryRR answers q from the opened RR index (Algorithm 2). Safe for
// concurrent use; the query pins the handle it starts on, so a concurrent
// Open/Close can neither pull the index out from under it nor make it wait.
func (e *Engine) QueryRR(q Query) (*Result, error) {
	return e.QueryRRCtx(context.Background(), q)
}

// QueryRRCtx is QueryRR with cancellation: ctx is checked at every
// keyword-load boundary, so a caller that goes away (a disconnected HTTP
// client, a router-side timeout) stops paying for artifact fetches it no
// longer wants. A canceled query returns ctx.Err().
func (e *Engine) QueryRRCtx(ctx context.Context, q Query) (*Result, error) {
	return e.QueryRRStreamCtx(ctx, q, StreamOptions{})
}

// QueryRRStreamCtx is QueryRRCtx with anytime hooks: so.Emit receives each
// seed as greedy selection certifies it, and an expired so.Deadline returns
// the best certified prefix with Partial=true instead of an error. Zero
// options degrade to exactly the batch path.
func (e *Engine) QueryRRStreamCtx(ctx context.Context, q Query, so StreamOptions) (*Result, error) {
	h, err := e.acquireRR()
	if err != nil {
		return nil, err
	}
	defer h.release()
	r, err := h.rr.QueryStreamCtx(ctx, q.internal(), so.internal())
	if err != nil {
		return nil, err
	}
	return &Result{
		Seeds:     r.Seeds,
		Marginals: r.Marginals,
		EstSpread: r.EstSpread,
		NumRRSets: r.NumRRSets,
		IO:        ioStats(r.IO, r.DecodedHits, r.DecodedMisses),
		Partial:   r.Partial,
		Elapsed:   r.Elapsed,
	}, nil
}

// QueryIRR answers q from the opened IRR index (Algorithm 4). Safe for
// concurrent use; the query pins the handle it starts on, so a concurrent
// Open/Close can neither pull the index out from under it nor make it wait.
func (e *Engine) QueryIRR(q Query) (*Result, error) {
	return e.QueryIRRCtx(context.Background(), q)
}

// QueryIRRCtx is QueryIRR with cancellation: ctx is checked at every
// keyword-load and NRA partition-round boundary, so a canceled caller's
// query stops within one partition round instead of running Algorithm 4 to
// completion. A canceled query returns ctx.Err().
func (e *Engine) QueryIRRCtx(ctx context.Context, q Query) (*Result, error) {
	return e.QueryIRRStreamCtx(ctx, q, StreamOptions{})
}

// QueryIRRStreamCtx is QueryIRRCtx with anytime hooks: so.Emit receives each
// seed the moment the NRA test certifies it — typically while partitions are
// still unloaded, which is the IRR layout's defining win — and an expired
// so.Deadline returns the certified prefix with Partial=true instead of an
// error. Zero options degrade to exactly the batch path.
func (e *Engine) QueryIRRStreamCtx(ctx context.Context, q Query, so StreamOptions) (*Result, error) {
	h, err := e.acquireIRR()
	if err != nil {
		return nil, err
	}
	defer h.release()
	r, err := h.irr.QueryStreamCtx(ctx, q.internal(), so.internal())
	if err != nil {
		return nil, err
	}
	return &Result{
		Seeds:            r.Seeds,
		Marginals:        r.Marginals,
		EstSpread:        r.EstSpread,
		NumRRSets:        r.NumRRSets,
		IO:               ioStats(r.IO, r.DecodedHits, r.DecodedMisses),
		PartitionsLoaded: r.PartitionsLoaded,
		Partial:          r.Partial,
		Elapsed:          r.Elapsed,
	}, nil
}

// ArtifactBytes serves one raw index artifact — the serving side of the
// cross-node fetch protocol (internal/remote): a router node opens this
// engine's index remotely and fetches the same per-keyword units local
// queries read (set prefixes, inverted regions, IP tables, partition
// blocks), so cross-node results stay bit-identical to a local open of the
// same file. kind is "rr" or "irr"; the returned size is the index file's
// total byte length (remote Open needs it to validate directory offsets).
// The handle is pinned for the read, exactly as a local query would, so a
// concurrent Open/Close cannot pull the file out from under the fetch.
//
// Unknown kinds and kinds with no index attached wrap remote.ErrNoArtifact
// — "this node does not serve that" (a not-served record, what routers
// probe index kinds with) — while a closed engine or a failed read is a
// plain error (a failed record): callers must be able to tell "look
// elsewhere" from "retry".
func (e *Engine) ArtifactBytes(kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	if kind != "rr" && kind != "irr" {
		return nil, 0, fmt.Errorf("%w: unknown index kind %q (want rr or irr)", remote.ErrNoArtifact, kind)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, 0, fmt.Errorf("kbtim: engine is closed")
	}
	h := e.rrH
	if kind == "irr" {
		h = e.irrH
	}
	if h == nil {
		e.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: no %s index attached", remote.ErrNoArtifact, kind)
	}
	h.refs.Add(1)
	e.mu.Unlock()
	defer h.release()
	if kind == "rr" {
		b, err := h.rr.ArtifactBytes(unit, topic, aux)
		return b, h.rr.Size(), err
	}
	b, err := h.irr.ArtifactBytes(unit, topic, aux)
	return b, h.irr.Size(), err
}

// EvaluateSpread Monte-Carlo-estimates the true expected targeted influence
// E[I^Q(S)] of a seed set under the engine's propagation model (the Table 7
// methodology). rounds of 10000 give ±1% on the scales used here.
func (e *Engine) EvaluateSpread(seeds []Seed, q Query, rounds int) (float64, error) {
	if rounds <= 0 {
		return 0, fmt.Errorf("kbtim: rounds must be positive")
	}
	if err := q.internal().Validate(e.ds.NumTopics()); err != nil {
		return 0, err
	}
	score := func(v uint32) float64 { return e.ds.profiles.Score(v, q.internal()) }
	return prop.EstimateWeightedSpread(e.ds.graph, e.model, seeds, score, rounds, rng.New(e.cfg.Seed^0xE7A1)), nil
}

// EvaluateReach Monte-Carlo-estimates the unweighted spread E[|I(S)|].
func (e *Engine) EvaluateReach(seeds []Seed, rounds int) (float64, error) {
	if rounds <= 0 {
		return 0, fmt.Errorf("kbtim: rounds must be positive")
	}
	return prop.EstimateSpread(e.ds.graph, e.model, seeds, rounds, rng.New(e.cfg.Seed^0xEEA2)), nil
}
