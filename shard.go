package kbtim

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/objcache"
	"kbtim/internal/rrindex"
	"kbtim/internal/shardmap"
)

// ShardMode selects how a keyword universe is assigned to engine shards.
type ShardMode string

// Supported shard modes.
const (
	// ShardHash spreads keywords across shards by a stable integer hash of
	// the topic ID (the default).
	ShardHash ShardMode = "hash"
	// ShardRange assigns contiguous topic-ID blocks to shards.
	ShardRange ShardMode = "range"
	// ShardReplicate gives every shard the full universe; queries are
	// load-balanced round-robin across replicas and never scatter.
	ShardReplicate ShardMode = "replicate"
)

func (m ShardMode) internal() (shardmap.Mode, error) {
	if m == "" {
		return shardmap.Hash, nil
	}
	return shardmap.ParseMode(string(m))
}

// ShardStat is one shard's contribution to a sharded deployment's counters.
type ShardStat struct {
	// Shard is the shard index (the suffix of its index files).
	Shard int
	// Keywords is the number of topics the shard's attached indexes serve.
	Keywords int
	// InFlight is the number of queries currently reading from this shard
	// (counted whether or not a bounded per-shard pool is configured).
	InFlight int64
	// Cache tiers, per index kind, as in Engine.CacheStats /
	// Engine.DecodedCacheStats.
	RRCache    diskio.CacheStats
	IRRCache   diskio.CacheStats
	RRDecoded  objcache.Stats
	IRRDecoded objcache.Stats
}

// Sharded serves one logical keyword universe from N engine shards on one
// box. In hash/range mode each shard's indexes cover a disjoint keyword
// subset: a query whose topics co-locate on one shard takes the fast path
// (that engine answers it exactly as a single-engine deployment would), and
// a query spanning shards is answered by the exact cross-index merge
// (rrindex/irrindex QueryMulti), which returns bit-identical seeds,
// marginals, and spreads to a single full index — per-keyword build
// determinism makes shard payloads equal to the full index's, and the merge
// runs in query-keyword order. In replicate mode every shard holds the full
// index and queries round-robin across replicas.
//
// Each shard optionally has its own bounded worker pool: a query occupies
// one slot on every shard it reads from, acquired in ascending shard order
// so concurrent scatter queries cannot deadlock. Combined with per-engine
// cache budgets (the serving layer splits its global budget N ways), one
// shard's hot keywords cannot starve another's workers or evict another's
// cache — the workload isolation that motivates partitioning before
// distribution.
//
// A Sharded is safe for concurrent use, and the underlying Engines remain
// directly usable for hot swaps (OpenRRIndex/OpenIRRIndex during traffic).
type Sharded struct {
	engines  []*Engine
	sm       *shardmap.Map
	sems     []chan struct{} // per-shard worker pools; nil = unbounded
	inflight []atomic.Int64
	next     atomic.Uint64 // round-robin cursor for replicate routing
}

// NewSharded assembles a sharded deployment from per-shard engines (all
// over the same dataset). perShardWorkers bounds each shard's concurrent
// queries (<= 0 = unbounded). The engines' indexes must have been built
// with the matching mode's partition of the keyword universe (see
// Engine.BuildRRIndexTopics and shardmap.Partition); NewSharded checks
// coverage lazily — a query for a keyword the owning shard does not serve
// fails with "not indexed", exactly as on a single engine.
func NewSharded(engines []*Engine, mode ShardMode, perShardWorkers int) (*Sharded, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("kbtim: sharded deployment needs at least one engine")
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("kbtim: shard %d engine is nil", i)
		}
	}
	m, err := mode.internal()
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	numTopics := engines[0].ds.NumTopics()
	numUsers := engines[0].ds.NumUsers()
	for i, e := range engines[1:] {
		if e.ds.NumTopics() != numTopics || e.ds.NumUsers() != numUsers {
			// Guard the single-shard fast path too: QueryMulti re-checks
			// headers on scatter, but a co-located query goes straight to
			// one engine and would silently answer from the wrong dataset.
			return nil, fmt.Errorf("kbtim: shard %d dataset (%d users, %d topics) differs from shard 0's (%d users, %d topics)",
				i+1, e.ds.NumUsers(), e.ds.NumTopics(), numUsers, numTopics)
		}
	}
	sm, err := shardmap.New(len(engines), m, numTopics)
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	s := &Sharded{engines: engines, sm: sm, inflight: make([]atomic.Int64, len(engines))}
	if perShardWorkers > 0 {
		s.sems = make([]chan struct{}, len(engines))
		for i := range s.sems {
			s.sems[i] = make(chan struct{}, perShardWorkers)
		}
	}
	return s, nil
}

// NumShards returns N.
func (s *Sharded) NumShards() int { return len(s.engines) }

// Mode returns the keyword-assignment mode.
func (s *Sharded) Mode() ShardMode { return ShardMode(s.sm.Mode().String()) }

// Shard returns shard i's engine (for hot swaps and per-shard inspection).
func (s *Sharded) Shard(i int) *Engine { return s.engines[i] }

// Owner returns the shard owning a topic (ownership is shared in replicate
// mode; the returned shard is the deterministic default replica).
func (s *Sharded) Owner(topic int) int { return s.sm.Owner(topic) }

// Close closes every shard engine and returns the first error.
func (s *Sharded) Close() error {
	var first error
	for _, e := range s.engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// IndexedKeywords returns the sorted union of every shard's queryable
// topics (disjoint in hash/range mode, identical in replicate mode).
func (s *Sharded) IndexedKeywords() []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range s.engines {
		for _, w := range e.IndexedKeywords() {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	if out == nil {
		return nil
	}
	sort.Ints(out)
	return out
}

// CacheStats returns the segment-cache counters summed across shards.
func (s *Sharded) CacheStats() (rr, irr diskio.CacheStats) {
	for _, e := range s.engines {
		r, i := e.CacheStats()
		rr = addCacheStats(rr, r)
		irr = addCacheStats(irr, i)
	}
	return rr, irr
}

// DecodedCacheStats returns the decoded-object-cache counters summed
// across shards.
func (s *Sharded) DecodedCacheStats() (rr, irr objcache.Stats) {
	for _, e := range s.engines {
		r, i := e.DecodedCacheStats()
		rr = rr.Add(r)
		irr = irr.Add(i)
	}
	return rr, irr
}

// ShardStats returns each shard's own counters (the per-shard breakdown of
// the aggregate CacheStats/DecodedCacheStats views).
func (s *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.engines))
	for i, e := range s.engines {
		st := ShardStat{Shard: i, Keywords: len(e.IndexedKeywords()), InFlight: s.inflight[i].Load()}
		st.RRCache, st.IRRCache = e.CacheStats()
		st.RRDecoded, st.IRRDecoded = e.DecodedCacheStats()
		out[i] = st
	}
	return out
}

func addCacheStats(a, b diskio.CacheStats) diskio.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Entries += b.Entries
	a.BytesCached += b.BytesCached
	a.BudgetBytes += b.BudgetBytes
	return a
}

// involved returns the shards a query must touch, ascending. Replicate mode
// rotates across replicas; hash/range modes return the distinct owners of
// the query's topics.
func (s *Sharded) involved(topics []int) []int {
	if s.sm.Mode() == shardmap.Replicate {
		return []int{int(s.next.Add(1)-1) % len(s.engines)}
	}
	return s.sm.Shards(topics)
}

// acquire takes one worker slot on every involved shard, in ascending shard
// order (the total order makes concurrent multi-shard acquisition
// deadlock-free), and returns the matching release. The waits honor ctx: a
// canceled query releases every slot it already took and returns ctx.Err()
// instead of occupying a shard worker it no longer wants — the same
// abandonment semantics as kbtim-serve's global-pool wait, one layer down.
func (s *Sharded) acquire(ctx context.Context, shards []int) (func(), error) {
	for i, sh := range shards {
		if s.sems != nil {
			select {
			case s.sems[sh] <- struct{}{}:
			case <-ctx.Done():
				for _, got := range shards[:i] {
					s.inflight[got].Add(-1)
					<-s.sems[got]
				}
				return nil, ctx.Err()
			}
		}
		s.inflight[sh].Add(1)
	}
	return func() {
		for _, sh := range shards {
			s.inflight[sh].Add(-1)
			if s.sems != nil {
				<-s.sems[sh]
			}
		}
	}, nil
}

// QueryRR answers q from the shards' RR indexes — fast path when one shard
// owns every topic, exact scatter-gather merge otherwise. Results are
// identical to a single-engine deployment over the full index.
func (s *Sharded) QueryRR(q Query) (*Result, error) {
	return s.QueryRRCtx(context.Background(), q)
}

// QueryRRCtx is QueryRR with cancellation, honored both while waiting for
// per-shard worker slots and at every keyword-load boundary of the query
// itself.
func (s *Sharded) QueryRRCtx(ctx context.Context, q Query) (*Result, error) {
	return s.QueryRRStreamCtx(ctx, q, StreamOptions{})
}

// QueryRRStreamCtx is QueryRRCtx with anytime hooks — the fast path streams
// from the owning engine, a spanning query streams from the exact
// cross-index merge, with identical emissions either way.
func (s *Sharded) QueryRRStreamCtx(ctx context.Context, q Query, so StreamOptions) (*Result, error) {
	tq := q.internal()
	shards := s.involved(tq.Topics)
	if len(shards) == 0 {
		return nil, fmt.Errorf("kbtim: query needs at least one keyword")
	}
	release, err := s.acquire(ctx, shards)
	if err != nil {
		return nil, err
	}
	defer release()
	if len(shards) == 1 {
		return s.engines[shards[0]].QueryRRStreamCtx(ctx, q, so)
	}
	handles, done, err := s.pin(shards, (*Engine).acquireRR)
	if err != nil {
		return nil, err
	}
	defer done()
	r, err := rrindex.QueryMultiStreamCtx(ctx, func(w int) *rrindex.Index {
		if h := handles[s.sm.Owner(w)]; h != nil {
			return h.rr
		}
		return nil
	}, tq, so.internal())
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

// QueryIRR answers q from the shards' IRR indexes; routing and parity
// semantics match QueryRR's.
func (s *Sharded) QueryIRR(q Query) (*Result, error) {
	return s.QueryIRRCtx(context.Background(), q)
}

// QueryIRRCtx is QueryIRR with cancellation, honored both while waiting for
// per-shard worker slots and at every keyword-load and NRA partition-round
// boundary of the query itself.
func (s *Sharded) QueryIRRCtx(ctx context.Context, q Query) (*Result, error) {
	return s.QueryIRRStreamCtx(ctx, q, StreamOptions{})
}

// QueryIRRStreamCtx is QueryIRRCtx with anytime hooks; routing matches
// QueryRRStreamCtx's, and the NRA merge certifies (and so emits) seeds
// before every shard's partitions are loaded, exactly as on one engine.
func (s *Sharded) QueryIRRStreamCtx(ctx context.Context, q Query, so StreamOptions) (*Result, error) {
	tq := q.internal()
	shards := s.involved(tq.Topics)
	if len(shards) == 0 {
		return nil, fmt.Errorf("kbtim: query needs at least one keyword")
	}
	release, err := s.acquire(ctx, shards)
	if err != nil {
		return nil, err
	}
	defer release()
	if len(shards) == 1 {
		return s.engines[shards[0]].QueryIRRStreamCtx(ctx, q, so)
	}
	handles, done, err := s.pin(shards, (*Engine).acquireIRR)
	if err != nil {
		return nil, err
	}
	defer done()
	r, err := irrindex.QueryMultiStreamCtx(ctx, func(w int) *irrindex.Index {
		if h := handles[s.sm.Owner(w)]; h != nil {
			return h.irr
		}
		return nil
	}, tq, so.internal())
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

// pin acquires the relevant index handle of every involved shard so a
// scatter query keeps all its indexes alive for its whole duration — each
// shard engine may be hot-swapped or closed concurrently, exactly as with
// single-engine queries. On error every handle already pinned is released.
func (s *Sharded) pin(shards []int, acquire func(*Engine) (*indexHandle, error)) (map[int]*indexHandle, func(), error) {
	handles := make(map[int]*indexHandle, len(shards))
	release := func() {
		for _, h := range handles {
			h.release()
		}
	}
	for _, sh := range shards {
		h, err := acquire(s.engines[sh])
		if err != nil {
			release()
			return nil, nil, err
		}
		handles[sh] = h
	}
	return handles, release, nil
}

// ArtifactBytes implements the cross-node artifact-serving interface
// (remote.Source) so a sharded box still mounts /internal/artifacts — and
// answers every requested unit with a diagnosis instead of a bare route
// 404. A fan-out router expects SINGLE-ENGINE backends (node i serving
// shard i's "<index>.s<i>" file): a multi-shard box holds several disjoint
// keyword directories and has no one prelude to serve, so an operator who
// points -router at it gets this message rather than a misleading "serves
// no RR or IRR index".
func (s *Sharded) ArtifactBytes(kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	return nil, 0, fmt.Errorf("kbtim: cross-node artifact serving needs single-engine backends (run one kbtim-serve per shard file, -shards 1); this node runs %d engine shards behind one process", len(s.engines))
}

// BuildShardIndexes builds per-shard index files for a sharded deployment:
// the engine's indexable universe is partitioned by (shards, mode) and each
// shard's subset index is written to pathFor(shard). Replicate mode writes
// the full index to every shard path. kind is "rr" or "irr". Shards left
// with no keywords (possible at tiny universes under hash skew) get no file
// and a nil report.
func (e *Engine) BuildShardIndexes(kind string, shards int, mode ShardMode, pathFor func(shard int) string) ([]*BuildReport, error) {
	m, err := mode.internal()
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	sm, err := shardmap.New(shards, m, e.ds.NumTopics())
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	build := e.BuildIRRIndexTopics
	switch kind {
	case "irr":
	case "rr":
		build = e.BuildRRIndexTopics
	default:
		return nil, fmt.Errorf("kbtim: unknown index kind %q (want rr or irr)", kind)
	}
	parts := sm.Partition(e.IndexableTopics())
	reports := make([]*BuildReport, shards)
	var written []string
	for sh, part := range parts {
		if len(part) == 0 {
			continue
		}
		path := pathFor(sh)
		rep, err := build(path, part)
		if err != nil {
			// No partial shard sets: a later failure removes the earlier
			// shards' files (matching the single-build convention), so a
			// rerun can never mix shard files from different parameters.
			for _, p := range written {
				os.Remove(p)
			}
			return nil, fmt.Errorf("kbtim: shard %d: %w", sh, err)
		}
		written = append(written, path)
		reports[sh] = rep
	}
	return reports, nil
}

// ShardIndexPath returns the conventional per-shard index filename,
// "<path>.s<shard>" — the naming contract between kbtim-build's sharded
// output and kbtim-serve's sharded open (replicate mode serves one
// unsuffixed file to every shard instead).
func ShardIndexPath(path string, shard int) string {
	return fmt.Sprintf("%s.s%d", path, shard)
}

// OpenShardedIndexes assembles a ready-to-query Sharded deployment over
// per-shard index files: N engines are created over ds with opts (the
// caller splits any global cache budgets per shard beforehand), and shard i
// opens "<path>.s<i>" for each non-empty rrPath/irrPath — the files
// kbtim-build -shards writes — while replicate mode opens the one full
// index at the unsuffixed path on every shard. Shards whose keyword
// partition is empty (possible when hashing a tiny universe) are left
// indexless and are never routed to.
//
// The open is all-or-nothing: any failure closes every engine already
// created — including the ones that had opened their files — so a partial
// failure leaks no file handles, and the error names the shard (with the
// kbtim-build invocation that produces a missing file).
func OpenShardedIndexes(ds *Dataset, opts Options, rrPath, irrPath string, shards int, mode ShardMode, perShardWorkers int) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("kbtim: shard count must be >= 1, got %d", shards)
	}
	if rrPath == "" && irrPath == "" {
		return nil, fmt.Errorf("kbtim: sharded open needs an RR and/or IRR index path")
	}
	engines := make([]*Engine, 0, shards)
	fail := func(err error) (*Sharded, error) {
		for _, e := range engines {
			e.Close()
		}
		return nil, err
	}
	for i := 0; i < shards; i++ {
		eng, err := NewEngine(ds, opts)
		if err != nil {
			return fail(err)
		}
		engines = append(engines, eng)
	}
	topicsBy, err := engines[0].ShardTopics(shards, mode)
	if err != nil {
		return fail(err)
	}
	pathFor := func(path string, shard int) string {
		if mode == ShardReplicate {
			return path
		}
		return ShardIndexPath(path, shard)
	}
	for i, eng := range engines {
		if len(topicsBy[i]) == 0 {
			continue
		}
		if rrPath != "" {
			p := pathFor(rrPath, i)
			if err := eng.OpenRRIndex(p); err != nil {
				return fail(shardOpenErr(p, i, shards, mode, err))
			}
		}
		if irrPath != "" {
			p := pathFor(irrPath, i)
			if err := eng.OpenIRRIndex(p); err != nil {
				return fail(shardOpenErr(p, i, shards, mode, err))
			}
		}
	}
	s, err := NewSharded(engines, mode, perShardWorkers)
	if err != nil {
		return fail(err)
	}
	return s, nil
}

// shardOpenErr decorates a per-shard open failure with the likely fix when
// the file simply is not there.
func shardOpenErr(path string, shard, shards int, mode ShardMode, err error) error {
	if os.IsNotExist(err) && mode != ShardReplicate {
		return fmt.Errorf("kbtim: shard %d index %s missing (build per-shard files with kbtim-build -shards %d -shard-mode %s): %w",
			shard, path, shards, mode, err)
	}
	return fmt.Errorf("kbtim: shard %d: %w", shard, err)
}

// ShardTopics returns the keyword partition a sharded build/serve pair
// agrees on: result[i] is shard i's topic list over this engine's
// indexable universe.
func (e *Engine) ShardTopics(shards int, mode ShardMode) ([][]int, error) {
	m, err := mode.internal()
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	sm, err := shardmap.New(shards, m, e.ds.NumTopics())
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	return sm.Partition(e.IndexableTopics()), nil
}
