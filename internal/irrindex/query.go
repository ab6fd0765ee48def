package irrindex

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"kbtim/internal/artifact"
	"kbtim/internal/binfmt"
	"kbtim/internal/diskio"
	"kbtim/internal/objcache"
	"kbtim/internal/pool"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// Decoded-cache regions of this index (see objcache.Key).
const (
	regionIP   objcache.Region = iota // Aux = 0 → map[uint32]int32
	regionPart                        // Aux = partition index → *partBlock
)

// Index is an opened IRR index ready for incremental query processing.
// After Open the header and directory are immutable; every Query builds its
// own NRA state (kwState, heap, scratch buffers) and reads through a
// per-query I/O scope, so one Index is safe for concurrent use by multiple
// goroutines (provided the underlying reader supports concurrent positional
// reads, as diskio.File, diskio.Mem, and diskio.CachedReader all do).
type Index struct {
	hdr     Header
	dirs    map[int]*KeywordDir
	r       diskio.Segmented
	prelude int64            // header+directory byte length (the UnitDir artifact)
	dec     *objcache.Cache  // optional decoded-object cache, set before first Query
	par     int              // per-query artifact-load parallelism, set before first Query
	fetch   artifact.Fetcher // optional remote artifact source, set before first Query
}

// Artifact units of the IRR index, as named by the cross-node fetch protocol
// (internal/remote): every raw byte range a query ever reads is one of
// these, which is what lets a remote index fetch per-artifact instead of
// per-offset.
const (
	// UnitDir is the index prelude: header plus keyword directory.
	UnitDir = "dir"
	// UnitIP is one keyword's first-occurrence (IP) table; aux is 0.
	UnitIP = "ip"
	// UnitPart is one partition block of a keyword; aux is the partition
	// index.
	UnitPart = "part"
)

// ErrNoArtifact marks an artifact request whose NAME does not resolve on
// this index — unknown unit, unindexed keyword, out-of-range partition.
// Serving layers map it to a "not served here" record, as distinct from
// a resolvable artifact whose read failed (a real server error).
var ErrNoArtifact = errors.New("irrindex: no such artifact")

// Open parses the header and directory of an IRR index accessible via r.
func Open(r diskio.Segmented) (*Index, error) {
	head, err := r.ReadSegment(0, 16)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(head[:4]) != indexMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != indexVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	preludeLen := int64(binary.LittleEndian.Uint64(head[8:16]))
	if preludeLen < 16 || preludeLen > r.Size() {
		return nil, fmt.Errorf("%w: implausible prelude length %d", ErrBadFormat, preludeLen)
	}
	prelude, err := r.ReadSegment(0, preludeLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	br := binfmt.NewReader(prelude)
	hdr, numKeywords, err := parseHeader(br)
	if err != nil {
		return nil, err
	}
	idx := &Index{hdr: hdr, dirs: make(map[int]*KeywordDir, numKeywords), r: r, prelude: preludeLen}
	for i := 0; i < numKeywords; i++ {
		d, err := parseKeywordDir(br, &hdr)
		if err != nil {
			return nil, err
		}
		if d.IPOff < preludeLen || d.IPOff+d.IPLen > r.Size() {
			return nil, fmt.Errorf("%w: IP region for topic %d out of file", ErrBadFormat, d.TopicID)
		}
		for _, p := range d.Partitions {
			if p.Off < preludeLen || p.Off+p.Len > r.Size() {
				return nil, fmt.Errorf("%w: partition out of file for topic %d", ErrBadFormat, d.TopicID)
			}
		}
		dd := d
		idx.dirs[d.TopicID] = &dd
	}
	return idx, nil
}

// SetDecodedCache attaches a decoded-object cache: parsed IP tables and
// partition blocks are cached across queries (with singleflight loading),
// so hot keywords skip both the disk AND the decode. Must be called before
// the index is shared between goroutines (i.e. right after Open); pass nil
// to detach. Cached values are immutable — queries trim inverted lists to
// their private θ^Q_w by slicing.
func (idx *Index) SetDecodedCache(c *objcache.Cache) { idx.dec = c }

// SetQueryParallelism bounds how many keywords one Query fetches and
// decodes concurrently (<= 1 keeps the fully sequential path). With
// parallelism > 1 a query loads all keywords' IP tables and first partitions
// concurrently, and each NRA round SPECULATIVELY prefetches every keyword's
// next partition while the current one is processed. Seeds and spreads are
// identical either way — NRA state mutation stays sequential in keyword
// order — but speculative fetches that the query ends up not needing do
// show up in its I/O stats (that is the price of the latency win; they are
// decoded-cache warmup, not waste, when a cache is attached). Must be called
// before the index is shared between goroutines (i.e. right after Open).
func (idx *Index) SetQueryParallelism(n int) { idx.par = n }

// SetFetcher makes the index remote-backed: every artifact read bypasses the
// local reader and asks f for the named unit instead (the decoded cache, when
// attached, still fronts those fetches, so hot keywords skip the wire). Must
// be called before the index is shared between goroutines (i.e. right after
// Open); pass nil to go back to local reads.
func (idx *Index) SetFetcher(f artifact.Fetcher) { idx.fetch = f }

// Size returns the total byte length of the underlying index file (for a
// remote-backed index, the size the serving node advertised).
func (idx *Index) Size() int64 { return idx.r.Size() }

// ArtifactBytes serves one named artifact's raw bytes from the local index —
// the serving side of the cross-node fetch protocol. Reads go through the
// index's shared reader (and so through the segment cache when one is
// attached). aux is the partition index for UnitPart and ignored otherwise.
func (idx *Index) ArtifactBytes(unit string, topic int, aux int64) ([]byte, error) {
	if unit == UnitDir {
		return idx.r.ReadSegment(0, idx.prelude)
	}
	d := idx.dirs[topic]
	if d == nil {
		return nil, fmt.Errorf("%w: keyword %d not indexed", ErrNoArtifact, topic)
	}
	switch unit {
	case UnitIP:
		return idx.r.ReadSegment(d.IPOff, d.IPLen)
	case UnitPart:
		if aux < 0 || aux >= int64(len(d.Partitions)) {
			return nil, fmt.Errorf("%w: keyword %d has %d partitions, asked for %d", ErrNoArtifact, topic, len(d.Partitions), aux)
		}
		p := d.Partitions[aux]
		return idx.r.ReadSegment(p.Off, p.Len)
	default:
		return nil, fmt.Errorf("%w: unknown artifact unit %q", ErrNoArtifact, unit)
	}
}

// artifact returns one artifact's raw bytes for a query: one ReadSegment
// against the local reader, or — when the index is remote-backed — the
// shared stash-or-fetch choke point (artifact.Read). off/length locate the
// unit in the file.
func (idx *Index) artifact(ctx context.Context, r diskio.Segmented, unit string, topic int, aux, off, length int64) ([]byte, error) {
	if idx.fetch == nil {
		return r.ReadSegment(off, length)
	}
	return artifact.Read(ctx, idx.fetch, r, artifact.Request{Unit: unit, Topic: topic, Aux: aux}, off, length)
}

// Header returns the index-wide metadata.
func (idx *Index) Header() Header { return idx.hdr }

// Keywords returns the indexed topic IDs (unordered).
func (idx *Index) Keywords() []int {
	out := make([]int, 0, len(idx.dirs))
	for t := range idx.dirs {
		out = append(out, t)
	}
	return out
}

// Dir exposes one keyword's directory entry (nil if not indexed).
func (idx *Index) Dir(topicID int) *KeywordDir { return idx.dirs[topicID] }

// Plan computes the per-keyword RR-set allocation θ^Q_w = θ^Q·p_w, exactly
// as the RR index does (line 1 of Algorithm 4 = line 1 of Algorithm 2).
func (idx *Index) Plan(q topic.Query) (map[int]int, error) {
	if err := q.Validate(idx.hdr.NumTopics); err != nil {
		return nil, err
	}
	dirs := make([]*KeywordDir, len(q.Topics))
	for i, w := range q.Topics {
		if dirs[i] = idx.dirs[w]; dirs[i] == nil {
			return nil, fmt.Errorf("irrindex: keyword %d not indexed", w)
		}
	}
	return planTopics(&idx.hdr, q, dirs)
}

// planTopics is the Plan body over an explicit per-topic directory list —
// the directories may come from ONE index or from several keyword-sharded
// ones. θ^Q_w depends only on each keyword's (ThetaW, Phi), both frozen per
// keyword at build time, so a sharded deployment allocates exactly like a
// single index.
func planTopics(hdr *Header, q topic.Query, dirs []*KeywordDir) (map[int]int, error) {
	if err := q.Validate(hdr.NumTopics); err != nil {
		return nil, err
	}
	if q.K > hdr.K {
		return nil, fmt.Errorf("irrindex: Q.k=%d exceeds index cap K=%d", q.K, hdr.K)
	}
	var phiQ float64
	for _, d := range dirs {
		phiQ += d.Phi
	}
	if phiQ <= 0 {
		return nil, fmt.Errorf("irrindex: query %v has zero mass", q.Topics)
	}
	thetaQ := math.Inf(1)
	for _, d := range dirs {
		pw := d.Phi / phiQ
		if pw <= 0 {
			continue
		}
		if v := float64(d.ThetaW) / pw; v < thetaQ {
			thetaQ = v
		}
	}
	alloc := make(map[int]int, len(q.Topics))
	for _, d := range dirs {
		t := int64(thetaQ*(d.Phi/phiQ) + 1e-9)
		if t < 1 {
			t = 1
		}
		if t > d.ThetaW {
			t = d.ThetaW
		}
		alloc[d.TopicID] = int(t)
	}
	return alloc, nil
}

// QueryResult is a wris.Result plus IRR-specific access metrics.
type QueryResult struct {
	wris.Result
	// Marginals[i] is the number of newly covered RR sets when Seeds[i]
	// was selected; Theorem 3 says these match Algorithm 2's exactly.
	Marginals []int
	// IO is the logical disk activity (IP reads + partition fetches,
	// including speculative prefetches when query parallelism is on).
	IO diskio.Stats
	// Loaded maps keywords to the number of RR sets (IDs < θ^Q_w) seen in
	// fetched partitions — the Figures 5–7 series for IRR.
	Loaded map[int]int
	// PartitionsLoaded counts partition blocks consumed by the NRA rounds
	// (Table 6's I/O driver). Speculative prefetches the query never
	// consumed are not counted here (they appear in IO only).
	PartitionsLoaded int
	// DecodedHits / DecodedMisses count decoded-cache lookups by this
	// query (zero when no decoded cache is attached). A hit means the
	// artifact was consumed without any read OR decode.
	DecodedHits   int64
	DecodedMisses int64
	// Partial is true when a streaming deadline stopped the NRA loop before
	// k seeds: Seeds is the certified prefix (every entry was decided by the
	// usual COMPLETE ∧ ub ≥ Σkb test — never a guess), and EstSpread is the
	// spread of that prefix, a lower bound on the full answer's.
	Partial bool
}

// decCounters accumulates one query's decoded-cache traffic.
type decCounters struct {
	hits, misses int64
}

// add folds another goroutine's counters in (used after a parallel fetch
// joins; never called concurrently).
func (d *decCounters) add(o decCounters) {
	d.hits += o.hits
	d.misses += o.misses
}

// partFuture is one in-flight speculative partition fetch. The producing
// goroutine owns blk/err/dec until it closes done; the query consumes them
// only after <-done.
type partFuture struct {
	pi   int // partition index being fetched
	done chan struct{}
	blk  *partBlock
	err  error
	dec  decCounters
}

// kwState is the per-keyword in-memory state of one NRA run.
type kwState struct {
	topicID int
	// idx is the index owning this keyword — always the queried index for
	// single-index queries, possibly a different shard per keyword under
	// QueryMulti — and r is that index's per-query I/O scope. Every fetch
	// for this keyword goes through this pair.
	// r is a diskio.Segmented rather than a bare scope because the batch
	// planner reroutes remote keywords through a stash-carrying wrapper.
	idx     *Index
	r       diskio.Segmented
	dir     *KeywordDir
	thetaQw int
	ip      map[uint32]int32 // first occurrence per listed user (shared, read-only)
	// ipHot[u] is the precomputed "IP_w[u] < θ^Q_w" predicate (pooled): the
	// NRA upper-bound refresh asks it for every candidate every round, and a
	// bitmap probe there beats a map lookup by ~an order of magnitude.
	//
	// ipHot and lists are DENSE per-vertex tables, trading O(NumVertices)
	// pooled bytes (and a memclr) per keyword per query for O(1) branchless
	// probes on the hottest loop. At this repo's 1:1000 dataset scale that
	// is ~100s of KB per query; a paper-scale 41M-vertex graph would want
	// the sparse (map) representation back behind a size cutoff — see the
	// ROADMAP item.
	ipHot    []bool
	next     int       // next partition to fetch
	kb       int       // upper bound for users not yet seen in IL_w
	covered  []bool    // covered[rrID] for rrID < thetaQw (pooled)
	lists    [][]int32 // per-user loaded list (pooled; nil = not loaded)
	loaded   int       // RR sets (IDs < thetaQw) seen in fetched partitions
	fetched  int       // partition blocks consumed
	maxParts int
	pref     *partFuture // speculative next-partition fetch, nil when none
	// dec/err carry the parallel load phase's results to the join.
	dec decCounters
	err error
}

// candidate is a priority-queue entry; stale bounds are corrected on pop.
type candidate struct {
	user uint32
	ub   int
}

// candPool recycles heap backing arrays between queries.
var candPool pool.SlicePool[candidate]

// candHeap is a typed max-heap over candidates. container/heap would box
// every Push/Pop through interface{} — two allocations per operation on the
// NRA hot loop — so the sift operations are implemented directly.
type candHeap struct{ s []candidate }

func (h *candHeap) len() int { return len(h.s) }
func (h *candHeap) less(i, j int) bool {
	if h.s[i].ub != h.s[j].ub {
		return h.s[i].ub > h.s[j].ub
	}
	return h.s[i].user < h.s[j].user
}

func (h *candHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *candHeap) down(i int) {
	n := len(h.s)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			break
		}
		h.s[i], h.s[best] = h.s[best], h.s[i]
		i = best
	}
}

// push adds a candidate.
func (h *candHeap) push(c candidate) {
	h.s = append(h.s, c)
	h.up(len(h.s) - 1)
}

// pop removes and returns the root.
func (h *candHeap) pop() candidate {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s = h.s[:n]
	h.down(0)
	return top
}

// fix0 restores the heap property after the root was updated in place (the
// lazy upper-bound refresh).
func (h *candHeap) fix0() { h.down(0) }

// Query answers a KB-TIM query with Algorithm 4: incremental NRA top-k
// aggregation over the partitioned, length-sorted inverted lists, with lazy
// upper-bound refinement, terminating each round as soon as the heap top is
// COMPLETE and beats every unseen candidate (Σ_w kb[w]). With
// SetQueryParallelism > 1 the IP tables and first partitions load
// concurrently and each keyword's next partition is speculatively prefetched
// while the current NRA round runs; all NRA state mutation stays sequential,
// so the seed trace is identical to the sequential path.
func (idx *Index) Query(q topic.Query) (*QueryResult, error) {
	return QueryMulti(func(int) *Index { return idx }, q)
}

// QueryCtx is Query with cancellation: ctx is checked at every keyword-load
// and NRA partition-round boundary (and passed to the remote fetcher, when
// one is attached), so a canceled caller stops paying for rounds it no
// longer wants.
func (idx *Index) QueryCtx(ctx context.Context, q topic.Query) (*QueryResult, error) {
	return QueryMultiCtx(ctx, func(int) *Index { return idx }, q)
}

// QueryStreamCtx is QueryCtx with anytime hooks: so.Emit receives each seed
// the moment the NRA test certifies it — typically long before every
// partition is loaded — and an expired so.Deadline returns the certified
// prefix so far with Partial=true instead of an error.
func (idx *Index) QueryStreamCtx(ctx context.Context, q topic.Query, so wris.StreamOptions) (*QueryResult, error) {
	return QueryMultiStreamCtx(ctx, func(int) *Index { return idx }, q, so)
}

// QueryMulti answers a KB-TIM query with Algorithm 4 over a
// keyword-partitioned set of indexes: owner(w) returns the Index holding
// keyword w (nil = not indexed anywhere). The NRA aggregation is already
// organized as per-keyword state advancing round by round; here each
// keyword's state simply fetches from ITS owning index through that index's
// per-query I/O scope. Per-keyword partitions, IP tables, and the
// allocation plan are bit-identical however the universe is partitioned
// (sampling is seeded by topic ID alone), and all NRA state mutation stays
// sequential in query-keyword order — so a query spanning N shard indexes
// returns exactly the seeds, marginals, and spread a single full index
// would. The reported IO is the sum over the involved indexes' scopes.
func QueryMulti(owner func(topic int) *Index, q topic.Query) (*QueryResult, error) {
	return QueryMultiCtx(context.Background(), owner, q)
}

// QueryMultiCtx is QueryMulti with cancellation: ctx is checked before every
// keyword's IP load and at the top of every NRA partition round, so a
// canceled query stops within one round — it never fetches another full
// round of partitions for a client that hung up. Outstanding speculative
// prefetches are still drained before returning (they read through this
// query's I/O scope), so cancellation never leaks a goroutine into a
// released index handle.
func QueryMultiCtx(ctx context.Context, owner func(topic int) *Index, q topic.Query) (*QueryResult, error) {
	return QueryMultiStreamCtx(ctx, owner, q, wris.StreamOptions{})
}

// QueryMultiStreamCtx is QueryMultiCtx with anytime hooks; QueryMultiCtx is
// this function with zero options, so batch and streaming share one body and
// parity holds by construction. so.Emit is invoked synchronously the moment
// the NRA certification test (heap top COMPLETE with ub ≥ Σ_w kb[w]) decides
// a seed — the defining win of the IRR layout is that this happens while
// partitions are still unloaded — carrying the seed, its marginal, and the
// running spread lower bound Covered/θ^Q·φ^Q of the emitted prefix. A
// non-zero so.Deadline is checked at the same partition-round boundary as
// cancellation; once expired the loop stops and returns the certified prefix
// with Partial=true (zero-marginal padding is skipped — padding is only
// correct once every partition is decided, which a cut-short query cannot
// claim).
func QueryMultiStreamCtx(ctx context.Context, owner func(topic int) *Index, q topic.Query, so wris.StreamOptions) (*QueryResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(q.Topics) == 0 {
		return nil, fmt.Errorf("irrindex: query needs at least one keyword")
	}
	// Resolve the owning indexes. The overwhelmingly common case — every
	// keyword on ONE index (single-engine deployments, replicate shards,
	// co-located fast paths) — is detected first so it allocates none of
	// the multi-index bookkeeping; only genuinely spanning queries pay.
	base := owner(q.Topics[0])
	if base == nil {
		return nil, fmt.Errorf("irrindex: keyword %d not indexed", q.Topics[0])
	}
	multi := false
	for _, w := range q.Topics[1:] {
		ix := owner(w)
		if ix == nil {
			return nil, fmt.Errorf("irrindex: keyword %d not indexed", w)
		}
		if ix != base {
			multi = true
		}
	}
	var (
		idxOf  []*Index        // per-topic owner, nil when single-index
		uniq   []*Index        // distinct involved indexes, nil when single
		scopes []*diskio.Scope // per-query I/O scopes, parallel to uniq
		scope0 *diskio.Scope   // the single-index scope
	)
	if multi {
		idxOf = make([]*Index, len(q.Topics))
		for i, w := range q.Topics {
			ix := owner(w)
			idxOf[i] = ix
			known := false
			for _, u := range uniq {
				if u == ix {
					known = true
					break
				}
			}
			if !known {
				uniq = append(uniq, ix)
			}
		}
		for _, u := range uniq[1:] {
			if u.hdr.NumVertices != base.hdr.NumVertices || u.hdr.NumTopics != base.hdr.NumTopics || u.hdr.K != base.hdr.K {
				return nil, fmt.Errorf("irrindex: shard indexes built over different datasets or caps (|V| %d vs %d, |T| %d vs %d, K %d vs %d)",
					base.hdr.NumVertices, u.hdr.NumVertices, base.hdr.NumTopics, u.hdr.NumTopics, base.hdr.K, u.hdr.K)
			}
		}
		// All reads go through per-query scopes (one per involved index):
		// precise I/O accounting with no shared cursor, so concurrent
		// queries cannot race or pollute each other's sequential/random
		// classification.
		scopes = make([]*diskio.Scope, len(uniq))
		for i, u := range uniq {
			scopes[i] = diskio.NewScope(u.r)
		}
	} else {
		scope0 = diskio.NewScope(base.r)
	}
	idxAt := func(i int) *Index {
		if idxOf == nil {
			return base
		}
		return idxOf[i]
	}
	scopeAt := func(i int) *diskio.Scope {
		if idxOf == nil {
			return scope0
		}
		for j, u := range uniq {
			if u == idxOf[i] {
				return scopes[j]
			}
		}
		return nil // unreachable: every owner is in uniq
	}
	// Validate BEFORE the directory lookups so an out-of-space keyword is
	// reported as such ("outside topic space"), not as a coverage gap.
	if err := q.Validate(base.hdr.NumTopics); err != nil {
		return nil, err
	}
	dirOf := make([]*KeywordDir, len(q.Topics))
	for i, w := range q.Topics {
		if dirOf[i] = idxAt(i).dirs[w]; dirOf[i] == nil {
			return nil, fmt.Errorf("irrindex: keyword %d not indexed", w)
		}
	}
	nv := base.hdr.NumVertices
	alloc, err := planTopics(&base.hdr, q, dirOf)
	if err != nil {
		return nil, err
	}
	par := base.par
	for _, u := range uniq {
		if u.par > par {
			par = u.par
		}
	}

	var dec decCounters
	states := make([]*kwState, 0, len(q.Topics))
	var phiQ float64
	var blocks []*partBlock // consumed query-private (pool-backed) blocks
	h := &candHeap{}
	pushed := pool.Bools(nv)
	pending := pool.Uint32s(64)[:0] // users discovered by the latest fetches
	// fetchSem bounds ALL of this query's concurrent artifact loads — the
	// parallel IP phase and every speculative partition prefetch — at the
	// configured parallelism (shared across shard indexes, so a scatter
	// query cannot multiply its load budget by the shard count).
	var fetchSem chan struct{}
	if par > 1 {
		fetchSem = make(chan struct{}, par)
	}
	// drainPrefetch settles outstanding speculative fetches. They MUST
	// finish before the query returns: they read through this query's I/O
	// scope, and the caller may release the index handle (closing the file)
	// as soon as Query returns. On the success path (fold=true) their
	// decoded-cache traffic is folded into the query's counters — their
	// reads are already in the I/O scope, so dropping the counters would
	// let DecodedHits+Misses drift from IO — and their unconsumed
	// pool-backed blocks go back to the pools.
	drainPrefetch := func(fold bool) {
		for _, st := range states {
			f := st.pref
			if f == nil {
				continue
			}
			st.pref = nil
			<-f.done
			if fold {
				dec.add(f.dec)
			}
			if f.blk != nil {
				f.blk.release() // no-op for cache-shared blocks
			}
		}
	}
	defer func() {
		drainPrefetch(false)
		for _, st := range states {
			if st.covered != nil {
				pool.PutBools(st.covered)
			}
			if st.lists != nil {
				pool.PutInt32Lists(st.lists)
			}
			if st.ipHot != nil {
				pool.PutBools(st.ipHot)
			}
		}
		for _, blk := range blocks {
			blk.release()
		}
		pool.PutBools(pushed)
		pool.PutUint32s(pending)
		candPool.Put(h.s)
	}()

	for i, w := range q.Topics {
		d := dirOf[i]
		phiQ += d.Phi
		st := &kwState{
			topicID:  w,
			idx:      idxAt(i),
			r:        scopeAt(i),
			dir:      d,
			thetaQw:  alloc[w],
			next:     0,
			kb:       math.MaxInt32,
			covered:  pool.Bools(alloc[w]),
			lists:    pool.Int32Lists(nv),
			ipHot:    pool.Bools(nv),
			maxParts: len(d.Partitions),
		}
		states = append(states, st)
	}
	// Candidates are exactly the users listed in some IL_w, so the summed IP
	// entry counts bound the heap.
	hintCands := 0
	for _, st := range states {
		hintCands += st.dir.NumIPEntries
	}
	h.s = candPool.Get(hintCands)[:0]

	spec := par > 1
	// Wire batching: every remote batch-capable index gets a per-query stash
	// and each keyword's reads are rerouted through a stash-carrying reader;
	// from here on each fetch round PLANS its needs (all keywords' next
	// partitions plus the speculative lookahead), groups them by owning
	// index, and moves them in one batch round trip per backend. Local
	// indexes make this a no-op.
	wp := newWirePlanner(states, spec)
	wp.planInitial(ctx, states)
	if spec && len(states) > 1 {
		// Parallel load phase: every keyword's IP table is fetched and
		// decoded concurrently (bounded by fetchSem), and its first
		// partition is kicked off as a speculative fetch the priming loop
		// consumes.
		var wg sync.WaitGroup
		for _, st := range states {
			wg.Add(1)
			go func(st *kwState) {
				defer wg.Done()
				fetchSem <- struct{}{}
				defer func() { <-fetchSem }()
				if st.err = ctx.Err(); st.err != nil {
					return
				}
				st.err = st.idx.loadIP(ctx, st.r, st, &st.dec)
				if st.err == nil && st.maxParts > 0 {
					st.pref = st.idx.prefetchPartition(ctx, st.r, st, fetchSem)
				}
			}(st)
		}
		wg.Wait()
		for _, st := range states {
			dec.add(st.dec)
			if st.err != nil {
				return nil, fmt.Errorf("irrindex: keyword %d IP: %w", st.topicID, st.err)
			}
		}
	} else {
		for _, st := range states {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := st.idx.loadIP(ctx, st.r, st, &dec); err != nil {
				return nil, fmt.Errorf("irrindex: keyword %d IP: %w", st.topicID, err)
			}
		}
	}

	// Prime with the first partition of every keyword.
	for _, st := range states {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pending, err = st.idx.loadNextPartition(ctx, st.r, st, pushed, &dec, fetchSem, &blocks, pending)
		if err != nil {
			return nil, err
		}
	}

	sumKB := func() int {
		total := 0
		for _, st := range states {
			total += st.kb
		}
		return total
	}
	// ubOf returns the upper-bound score of u and whether it is COMPLETE
	// (all partial scores exact). Results are memoized under a version
	// stamp: the inputs (covered marks, loaded lists, kb) only change when a
	// seed is picked or a partition-load round completes, and each of those
	// bumps ubVersion — so the heap's refresh-then-decide double call (and
	// every flushPending re-push) costs one list scan, not two.
	ubVersion := int32(1)
	ubMemo := pool.Int32s(nv)
	ubStamp := pool.Int32s(nv)
	ubComplete := pool.Bools(nv)
	defer func() {
		pool.PutInt32s(ubMemo)
		pool.PutInt32s(ubStamp)
		pool.PutBools(ubComplete)
	}()
	ubOf := func(u uint32) (int, bool) {
		if ubStamp[u] == ubVersion {
			return int(ubMemo[u]), ubComplete[u]
		}
		total, complete := 0, true
		for _, st := range states {
			if list := st.lists[u]; list != nil {
				for _, id := range list {
					if !st.covered[id] {
						total++
					}
				}
				continue
			}
			if !st.ipHot[u] {
				continue // exact partial score 0 (line "IP_w[v] ≥ θ^Q_w")
			}
			total += st.kb
			complete = false
		}
		ubStamp[u] = ubVersion
		ubMemo[u] = int32(total)
		ubComplete[u] = complete
		return total, complete
	}

	// flushPending pushes newly discovered users with a CHEAP upper bound:
	// a loaded list's full length (≥ its uncovered count, no covered scan)
	// plus kb for every keyword still pending. That is ≥ ubOf(u) at push
	// time, and exact partial scores and kb only shrink afterwards, so heap
	// entries always overestimate — the invariant lazy refinement relies
	// on. The exact (covered-scanning) ubOf runs only for entries that
	// reach the heap top, which is what makes discovery O(keywords) per
	// user instead of O(total list length).
	flushPending := func() {
		for _, u := range pending {
			ub := 0
			for _, st := range states {
				if list := st.lists[u]; list != nil {
					ub += len(list)
				} else if st.ipHot[u] {
					ub += st.kb
				}
			}
			h.push(candidate{user: u, ub: ub})
		}
		pending = pending[:0]
	}
	flushPending()

	res := &QueryResult{Loaded: make(map[int]int, len(states))}
	picked := pool.Bools(nv)
	defer func() { pool.PutBools(picked) }()
	// θ^Q = Σ_w θ^Q_w and φ^Q are both fixed by the plan before any seed is
	// selected, so the running spread lower bound of an emitted prefix uses
	// the same formula as the final EstSpread — emissions never over-promise.
	totalTheta := 0
	for _, st := range states {
		totalTheta += st.thetaQw
	}
	// emit is THE way a seed enters the result — certified picks and
	// zero-marginal padding both funnel through it, so the emitted stream and
	// the returned batch prefix are equal by construction.
	emit := func(seed uint32, marginal int) {
		picked[seed] = true
		res.Seeds = append(res.Seeds, seed)
		res.Marginals = append(res.Marginals, marginal)
		res.Covered += marginal
		if so.Emit != nil {
			so.Emit(seed, marginal, float64(res.Covered)/float64(totalTheta)*phiQ)
		}
	}
	// padZeros fills the remaining seed slots with zero-marginal vertices in
	// exactly coverage.Solve's order: smallest unpicked vertex ID over ALL
	// vertices, listed in an inverted file or not. Using the candidate heap
	// here instead would visit listed users first (smallest-user tie-break
	// among heap entries only) and break the Theorem-3 trace equality the
	// moment marginals hit zero.
	padZeros := func() {
		for v := 0; len(res.Seeds) < q.K && v < nv; v++ {
			if !picked[v] {
				emit(uint32(v), 0)
			}
		}
	}
	for len(res.Seeds) < q.K {
		// The partition-round boundary: each iteration fetches at most one
		// round of partitions, so a canceled client's query stops within one
		// round instead of running Algorithm 4 to completion. The anytime
		// deadline shares the boundary, but keeps the certified prefix.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if so.Expired() {
			res.Partial = true
			break
		}
		if h.len() == 0 {
			// The heap drained, but undiscovered users in unloaded
			// partitions may still score positively — padding now would
			// silently skip them. Keep fetching; pad only once every
			// partition is loaded (then every unpicked vertex is exactly
			// zero-marginal).
			wp.planRound(ctx, states)
			progress := false
			for _, st := range states {
				if st.next < st.maxParts {
					pending, err = st.idx.loadNextPartition(ctx, st.r, st, pushed, &dec, fetchSem, &blocks, pending)
					if err != nil {
						return nil, err
					}
					progress = true
				}
			}
			ubVersion++
			flushPending()
			if progress {
				continue
			}
			padZeros()
			break
		}
		top := h.s[0]
		if picked[top.user] {
			h.pop()
			continue
		}
		ub, complete := ubOf(top.user)
		if ub != top.ub {
			h.s[0].ub = ub
			h.fix0()
			continue
		}
		if complete && ub >= sumKB() {
			if ub == 0 {
				// The decided marginal is 0 and it bounds every other
				// candidate (heap entries overestimate, unseen users are
				// bounded by Σkb ≤ 0), so every remaining vertex has
				// marginal 0: switch to the solver's global padding order.
				padZeros()
				break
			}
			h.pop()
			emit(top.user, ub)
			for _, st := range states {
				for _, id := range st.lists[top.user] {
					st.covered[id] = true
				}
			}
			ubVersion++
			continue
		}
		// Not decidable yet: fetch the next partition of every keyword.
		wp.planRound(ctx, states)
		progress := false
		for _, st := range states {
			if st.next < st.maxParts {
				pending, err = st.idx.loadNextPartition(ctx, st.r, st, pushed, &dec, fetchSem, &blocks, pending)
				if err != nil {
					return nil, err
				}
				progress = true
			}
		}
		ubVersion++
		flushPending()
		if !progress {
			// Everything is loaded, so every candidate is COMPLETE and
			// kb = 0; the next pop decides. Guard against a logic error
			// that would otherwise spin forever.
			if complete {
				return nil, fmt.Errorf("irrindex: NRA made no progress (internal invariant violated)")
			}
		}
	}

	// Settle outstanding speculation BEFORE reading the counters, so the
	// reported decoded hits/misses cover exactly the lookups whose I/O the
	// scope recorded.
	drainPrefetch(true)
	for _, st := range states {
		res.Loaded[st.topicID] = st.loaded
		res.NumRRSets += st.loaded
		res.PartitionsLoaded += st.fetched
	}
	res.EstSpread = float64(res.Covered) / float64(totalTheta) * phiQ
	if multi {
		for _, s := range scopes {
			res.IO = res.IO.Add(s.Stats())
		}
	} else {
		res.IO = scope0.Stats()
	}
	res.DecodedHits = dec.hits
	res.DecodedMisses = dec.misses
	res.Elapsed = time.Since(start)
	return res, nil
}

// specLookahead is how many partitions ahead of the NRA cursor a batch
// round fetches per keyword when speculative prefetching is on. Chunking is
// what turns batching from "fewer, fatter requests" into "fewer wire
// ROUNDS": a lookahead of L serves ~L NRA rounds from the stash per round
// trip, at the cost of up to L−1 partitions of over-fetch per keyword when
// the NRA test certifies early. Partitions are small (length-sorted tails),
// and with a decoded cache attached over-fetched blocks are warmup, not
// waste — the same trade the single-partition speculation already makes.
// Without speculation the planner fetches exactly the round's needs.
const specLookahead = 4

// wirePlanner batches the query's wire needs per fetch round: one stash per
// remote index, shared by all of that index's keywords and by the per-unit
// decode path that consumes it (see artifact.Read).
type wirePlanner struct {
	stashes map[*Index]*artifact.Stash
	spec    bool
}

// newWirePlanner prepares a stash for every involved remote index and
// reroutes those keywords' reads through a stash-carrying reader. Queries
// over local indexes get a planner whose every method is a no-op.
func newWirePlanner(states []*kwState, spec bool) *wirePlanner {
	wp := &wirePlanner{spec: spec}
	for _, st := range states {
		if st.idx.fetch == nil {
			continue
		}
		stash := wp.stashes[st.idx]
		if stash == nil {
			if wp.stashes == nil {
				wp.stashes = make(map[*Index]*artifact.Stash)
			}
			stash = artifact.NewStash()
			wp.stashes[st.idx] = stash
		}
		st.r = &artifact.Stashed{Segmented: st.r, S: stash}
	}
	return wp
}

// lookahead is the per-keyword partition chunk one batch round asks for.
func (wp *wirePlanner) lookahead() int {
	if wp.spec {
		return specLookahead
	}
	return 1
}

// partCovered reports whether partition pi of st's keyword needs no wire:
// an in-flight speculative future is fetching it, a prior batch already
// stashed it, or the decoded cache holds it.
func (wp *wirePlanner) partCovered(st *kwState, stash *artifact.Stash, pi int) bool {
	if f := st.pref; f != nil && f.pi == pi {
		return true
	}
	if stash.Has(artifact.Request{Unit: UnitPart, Topic: st.dir.TopicID, Aux: int64(pi)}) {
		return true
	}
	return st.idx.dec != nil &&
		st.idx.dec.Contains(objcache.Key{Region: regionPart, Topic: int32(st.dir.TopicID), Aux: int64(pi)})
}

// planInitial batches the query's opening needs — every keyword's IP table
// and its first partition chunk — into one round trip per owning index.
func (wp *wirePlanner) planInitial(ctx context.Context, states []*kwState) {
	if wp.stashes == nil {
		return
	}
	var plans map[*Index][]artifact.Request
	for _, st := range states {
		stash := wp.stashes[st.idx]
		if stash == nil {
			continue
		}
		if plans == nil {
			plans = make(map[*Index][]artifact.Request)
		}
		if st.idx.dec == nil || !st.idx.dec.Contains(objcache.Key{Region: regionIP, Topic: int32(st.dir.TopicID)}) {
			plans[st.idx] = append(plans[st.idx], artifact.Request{Unit: UnitIP, Topic: st.dir.TopicID})
		}
		for pi := 0; pi < wp.lookahead() && pi < st.maxParts; pi++ {
			if !wp.partCovered(st, stash, pi) {
				plans[st.idx] = append(plans[st.idx], artifact.Request{Unit: UnitPart, Topic: st.dir.TopicID, Aux: int64(pi)})
			}
		}
	}
	wp.issue(ctx, plans)
}

// planRound batches the partitions the coming fetch round will read. It
// fires only when some keyword's imminent needs (the next partition, plus
// the speculative next when prefetching is on) are not already covered; a
// triggered index then gets the full lookahead chunk of EVERY keyword it
// owns, so the following rounds ride the stash instead of the wire.
func (wp *wirePlanner) planRound(ctx context.Context, states []*kwState) {
	if wp.stashes == nil {
		return
	}
	var need map[*Index]bool
	for _, st := range states {
		stash := wp.stashes[st.idx]
		if stash == nil || st.next >= st.maxParts {
			continue
		}
		span := 1
		if wp.spec {
			span = 2 // the round consumes next and kicks a prefetch of next+1
		}
		for pi := st.next; pi < st.next+span && pi < st.maxParts; pi++ {
			if !wp.partCovered(st, stash, pi) {
				if need == nil {
					need = make(map[*Index]bool)
				}
				need[st.idx] = true
				break
			}
		}
	}
	if need == nil {
		return
	}
	plans := make(map[*Index][]artifact.Request)
	for _, st := range states {
		stash := wp.stashes[st.idx]
		if stash == nil || !need[st.idx] {
			continue
		}
		for pi := st.next; pi < st.next+wp.lookahead() && pi < st.maxParts; pi++ {
			if !wp.partCovered(st, stash, pi) {
				plans[st.idx] = append(plans[st.idx], artifact.Request{Unit: UnitPart, Topic: st.dir.TopicID, Aux: int64(pi)})
			}
		}
	}
	wp.issue(ctx, plans)
}

// issue moves each index's plan in one FetchBatch into its stash (see
// artifact.Issue).
func (wp *wirePlanner) issue(ctx context.Context, plans map[*Index][]artifact.Request) {
	artifact.Issue(ctx, plans, func(ix *Index) (artifact.Fetcher, *artifact.Stash) { return ix.fetch, wp.stashes[ix] })
}

// loadIP attaches a keyword's first-occurrence table to st, through the
// decoded cache when one is attached. The table is shared read-only between
// queries.
func (idx *Index) loadIP(ctx context.Context, r diskio.Segmented, st *kwState, dec *decCounters) error {
	if idx.dec == nil {
		ip, err := idx.decodeIP(ctx, r, st.dir)
		if err != nil {
			return err
		}
		st.ip = ip
		st.fillIPHot()
		return nil
	}
	// The loader runs under singleflight: concurrent queries share one
	// load, so it must not die with the query that happened to lead it — a
	// canceled leader would poison every live waiter with ITS ctx error.
	// Detach cancellation for the load; the canceled query still stops at
	// its next boundary check.
	lctx := context.WithoutCancel(ctx)
	v, hit, err := idx.dec.GetOrLoad(
		objcache.Key{Region: regionIP, Topic: int32(st.dir.TopicID)},
		func() (any, int64, error) {
			ip, err := idx.decodeIP(lctx, r, st.dir)
			if err != nil {
				return nil, 0, err
			}
			// Rough map footprint: key + value + bucket overhead.
			return ip, int64(len(ip)) * 16, nil
		})
	if err != nil {
		return err
	}
	if hit {
		dec.hits++
	} else {
		dec.misses++
	}
	st.ip = v.(map[uint32]int32)
	st.fillIPHot()
	return nil
}

// fillIPHot precomputes the "listed below the θ^Q_w horizon" predicate the
// NRA upper-bound refresh probes for every candidate every round.
func (st *kwState) fillIPHot() {
	for u, fo := range st.ip {
		if int(fo) < st.thetaQw {
			st.ipHot[u] = true
		}
	}
}

// decodeIP reads and parses a keyword's first-occurrence table through the
// query's scope.
func (idx *Index) decodeIP(ctx context.Context, r diskio.Segmented, d *KeywordDir) (map[uint32]int32, error) {
	buf, err := idx.artifact(ctx, r, UnitIP, d.TopicID, 0, d.IPOff, d.IPLen)
	if err != nil {
		return nil, err
	}
	br := binfmt.NewReader(buf)
	ip := make(map[uint32]int32, d.NumIPEntries)
	for i := 0; i < d.NumIPEntries; i++ {
		v := br.Uvarint()
		fo := br.Uvarint()
		if br.Err() != nil {
			return nil, br.Err()
		}
		if v >= uint64(idx.hdr.NumVertices) || fo >= uint64(d.ThetaW) {
			return nil, fmt.Errorf("%w: bad IP entry (%d→%d)", ErrBadFormat, v, fo)
		}
		ip[uint32(v)] = int32(fo)
	}
	if br.Remaining() != 0 {
		return nil, fmt.Errorf("%w: IP region has trailing bytes", ErrBadFormat)
	}
	return ip, nil
}

// partBlock is one fully decoded partition: users[i]'s ascending, UNtrimmed
// inverted list is lists[i]; setIDs are the RR sets first claimed by this
// block (the IR part — member lists are skipped, queries never need them).
// Cache-shared blocks are read-only and never pooled; query-private blocks
// (no decoded cache) borrow their backing arrays from the scratch pools
// (arena backs every lists[i]) and are released at query end. Cached blocks
// are shared read-only; post-construction writes outside the constructing
// function are checked by kbtim-lint's cacheimmutable.
//
//kbtim:cached
type partBlock struct {
	users  []uint32
	lists  [][]int32
	setIDs []uint32
	arena  []int32 // backing of lists when pool-backed, nil otherwise
}

// release returns a pool-backed block's arrays; a no-op for shared blocks.
func (b *partBlock) release() {
	if b.arena == nil {
		return
	}
	pool.PutUint32s(b.users)
	pool.PutUint32s(b.setIDs)
	pool.PutInt32Lists(b.lists)
	pool.PutInt32s(b.arena)
	b.arena = nil
}

// prefetchPartition starts fetching st's next partition in the background
// and returns the future the next loadNextPartition consumes. The goroutine
// owns the future's fields until done is closed, and takes a slot on the
// query's fetch semaphore so speculation honors the parallelism bound.
func (idx *Index) prefetchPartition(ctx context.Context, r diskio.Segmented, st *kwState, sem chan struct{}) *partFuture {
	f := &partFuture{pi: st.next, done: make(chan struct{})}
	d, t := st.dir, st.thetaQw
	go func() {
		defer close(f.done)
		sem <- struct{}{}
		defer func() { <-sem }()
		f.blk, f.err = idx.partition(ctx, r, d, f.pi, t, &f.dec)
	}()
	return f
}

// loadNextPartition obtains one partition block — from the keyword's
// speculative prefetch when one is in flight, else synchronously (a single
// random I/O on a decoded-cache miss) — merges its inverted lists into st
// (trimmed to IDs < θ^Q_w by slicing the shared block), counts its RR sets,
// lowers kb, appends users not seen before to pending (the caller pushes
// them once their cross-keyword upper bound is known), and, when spec is
// set, kicks off the NEXT partition's speculative fetch. Query-private
// blocks are appended to *blocks for release at query end.
func (idx *Index) loadNextPartition(ctx context.Context, r diskio.Segmented, st *kwState, pushed []bool, dec *decCounters, sem chan struct{}, blocks *[]*partBlock, pending []uint32) ([]uint32, error) {
	if st.next >= st.maxParts {
		return pending, nil
	}
	pi := st.next
	var blk *partBlock
	var err error
	if f := st.pref; f != nil && f.pi == pi {
		st.pref = nil
		<-f.done
		dec.add(f.dec)
		blk, err = f.blk, f.err
	} else {
		blk, err = idx.partition(ctx, r, st.dir, pi, st.thetaQw, dec)
	}
	if err != nil {
		return pending, err
	}
	if blk.arena != nil {
		*blocks = append(*blocks, blk)
	}
	st.next++
	st.fetched++
	for i, u := range blk.users {
		list := blk.lists[i]
		cut := len(list)
		// IDs ascend, so when the last one is inside the θ^Q_w horizon the
		// whole list survives — the overwhelmingly common case; binary
		// search only otherwise.
		if cut > 0 && list[cut-1] >= int32(st.thetaQw) {
			cut = sort.Search(cut, func(j int) bool { return list[j] >= int32(st.thetaQw) })
		}
		// list is never nil (even a fully trimmed one keeps its base
		// pointer), so a stored entry always reads as "loaded" in ubOf.
		st.lists[u] = list[:cut]
		if !pushed[u] {
			pushed[u] = true
			pending = append(pending, u)
		}
	}
	for _, id := range blk.setIDs {
		if id < uint32(st.thetaQw) {
			st.loaded++
		}
	}

	// kb: unseen users' lists are no longer than the shortest list just
	// loaded; once everything is loaded no unseen user remains.
	if st.next >= st.maxParts {
		st.kb = 0
	} else {
		st.kb = st.dir.Partitions[pi].LastListLen
		if st.kb > st.thetaQw {
			st.kb = st.thetaQw
		}
		if sem != nil && st.pref == nil {
			st.pref = idx.prefetchPartition(ctx, r, st, sem)
		}
	}
	return pending, nil
}

// partition returns one decoded partition block, through the decoded cache
// when attached. Without a cache the block is query-private and pool-backed,
// so its lists are trimmed to IDs < thetaQw during decode; the cached
// artifact is decoded in full (and never pooled) because it is shared by
// queries with different θ^Q_w.
func (idx *Index) partition(ctx context.Context, r diskio.Segmented, d *KeywordDir, pi, thetaQw int, dec *decCounters) (*partBlock, error) {
	if idx.dec == nil {
		return idx.decodePartition(ctx, r, d, pi, thetaQw, true)
	}
	// Detached ctx for the same singleflight-sharing reason as loadIP.
	lctx := context.WithoutCancel(ctx)
	v, hit, err := idx.dec.GetOrLoad(
		objcache.Key{Region: regionPart, Topic: int32(d.TopicID), Aux: int64(pi)},
		func() (any, int64, error) {
			blk, err := idx.decodePartition(lctx, r, d, pi, int(d.ThetaW), false)
			if err != nil {
				return nil, 0, err
			}
			size := int64(len(blk.users))*28 + int64(len(blk.setIDs))*4
			for _, l := range blk.lists {
				size += int64(len(l)) * 4
			}
			return blk, size, nil
		})
	if err != nil {
		return nil, err
	}
	if hit {
		dec.hits++
	} else {
		dec.misses++
	}
	return v.(*partBlock), nil
}

// decodePartition reads and decodes partition pi of keyword d: the IL
// part's user lists trimmed to RR-set IDs < limit (IDs ascend, so the kept
// part is a prefix), and the IR part's claimed-ID list only — the v2 layout
// fronts those IDs and length-prefixes the member lists, so nothing steps
// over member bytes at all. A pooled block borrows its backing arrays from the scratch
// pools; its arena is pre-sized to the partition's byte length (a safe upper
// bound on decoded entries — every entry costs at least one byte), so the
// per-user subslices never move.
func (idx *Index) decodePartition(ctx context.Context, r diskio.Segmented, d *KeywordDir, pi, limit int, pooled bool) (_ *partBlock, err error) {
	p := d.Partitions[pi]
	buf, err := idx.artifact(ctx, r, UnitPart, d.TopicID, int64(pi), p.Off, p.Len)
	if err != nil {
		return nil, err
	}
	br := binfmt.NewReader(buf)
	blk := &partBlock{}
	if pooled {
		blk.users = pool.Uint32s(p.NumUsers)[:0]
		blk.lists = pool.Int32Lists(p.NumUsers)[:0]
		blk.setIDs = pool.Uint32s(p.NumSets)[:0]
		blk.arena = pool.Int32s(int(p.Len))[:0]
		// A decode error below abandons blk before the caller ever sees
		// it; return the borrowed arrays instead of leaking them.
		defer func() {
			if err != nil {
				blk.release()
			}
		}()
	} else {
		blk.users = make([]uint32, 0, p.NumUsers)
		blk.lists = make([][]int32, 0, p.NumUsers)
		blk.setIDs = make([]uint32, 0, p.NumSets)
	}
	scratch := pool.Uint32s(64)[:0]
	defer func() { pool.PutUint32s(scratch) }()
	for i := 0; i < p.NumUsers; i++ {
		v := br.Uvarint()
		if br.Err() != nil {
			return nil, br.Err()
		}
		if v >= uint64(idx.hdr.NumVertices) {
			return nil, fmt.Errorf("%w: partition user %d out of range", ErrBadFormat, v)
		}
		scratch = scratch[:0]
		var n int
		scratch, n, err = idx.hdr.Compression.DecodeList(scratch, buf[br.Pos():])
		if err != nil {
			return nil, err
		}
		br.Bytes(n)
		cut := len(scratch)
		for cut > 0 && scratch[cut-1] >= uint32(limit) {
			cut--
		}
		var list []int32
		if pooled {
			start := len(blk.arena)
			for _, id := range scratch[:cut] {
				blk.arena = append(blk.arena, int32(id))
			}
			list = blk.arena[start:len(blk.arena):len(blk.arena)]
		} else {
			list = make([]int32, cut)
			for j, id := range scratch[:cut] {
				list[j] = int32(id)
			}
		}
		blk.users = append(blk.users, uint32(v))
		blk.lists = append(blk.lists, list)
	}
	// IR part v2: one compressed list of claimed set IDs, then the member
	// lists behind a byte-length prefix. Queries only need the IDs, so
	// decode stops after the length check — no scan over member bytes.
	scratch = scratch[:0]
	var n int
	scratch, n, err = idx.hdr.Compression.DecodeList(scratch, buf[br.Pos():])
	if err != nil {
		return nil, err
	}
	br.Bytes(n)
	if len(scratch) != p.NumSets {
		return nil, fmt.Errorf("%w: partition claims %d sets, directory says %d", ErrBadFormat, len(scratch), p.NumSets)
	}
	for _, id := range scratch {
		if uint64(id) >= uint64(d.ThetaW) {
			return nil, fmt.Errorf("%w: partition set ID %d out of range", ErrBadFormat, id)
		}
		blk.setIDs = append(blk.setIDs, id)
	}
	memberBytes := br.Uvarint()
	if br.Err() != nil {
		return nil, br.Err()
	}
	if uint64(br.Remaining()) != memberBytes {
		return nil, fmt.Errorf("%w: partition member region is %d bytes, prefix says %d", ErrBadFormat, br.Remaining(), memberBytes)
	}
	return blk, nil
}
