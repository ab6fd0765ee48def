package rrindex

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
	"kbtim/internal/coverage"
	"kbtim/internal/diskio"
	"kbtim/internal/objcache"
	"kbtim/internal/pool"
	"kbtim/internal/rrset"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// Decoded-cache regions of this index (see objcache.Key).
const (
	regionSets objcache.Region = iota // Aux = θ-prefix length → *rrset.Batch
	regionInv                         // Aux = 0 → *invTable
)

// Index is an opened RR index ready for query processing. After Open the
// header and directory are immutable and every Query works on its own
// scratch state and a per-query I/O scope, so one Index is safe for
// concurrent use by multiple goroutines (provided the underlying reader
// supports concurrent positional reads, as diskio.File, diskio.Mem, and
// diskio.CachedReader all do).
type Index struct {
	hdr     Header
	dirs    map[int]*KeywordDir
	r       diskio.Segmented
	prelude int64            // header+directory byte length (the UnitDir artifact)
	dec     *objcache.Cache  // optional decoded-object cache, set before first Query
	par     int              // per-query artifact-load parallelism, set before first Query
	fetch   artifact.Fetcher // optional remote artifact source, set before first Query
}

// Artifact units of the RR index, as named by the cross-node fetch protocol
// (internal/remote): every raw byte range a query ever reads is one of
// these, which is what lets a remote index fetch per-artifact instead of
// per-offset.
const (
	// UnitDir is the index prelude: header plus keyword directory.
	UnitDir = "dir"
	// UnitSets is one keyword's θ-prefix of RR sets; aux is the prefix
	// length t (the payload is the checkpoint-aligned first prefixBytes(t)
	// bytes of the sets region).
	UnitSets = "sets"
	// UnitInv is one keyword's whole inverted region; aux is 0.
	UnitInv = "inv"
)

// ErrNoArtifact marks an artifact request whose NAME does not resolve on
// this index — unknown unit, unindexed keyword, out-of-range refinement.
// Serving layers map it to a "not served here" record, as distinct from
// a resolvable artifact whose read failed (a real server error).
var ErrNoArtifact = errors.New("rrindex: no such artifact")

// Open parses the header and directory of an index accessible through r.
// The payload stays on "disk" and is fetched per query.
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
	hr := &headerReader{buf: prelude}
	hdr, numKeywords, err := parseHeader(hr)
	if err != nil {
		return nil, err
	}
	idx := &Index{hdr: hdr, dirs: make(map[int]*KeywordDir, numKeywords), r: r, prelude: preludeLen}
	for i := 0; i < numKeywords; i++ {
		d, err := parseKeywordDir(hr, &hdr)
		if err != nil {
			return nil, err
		}
		if d.SetsOff < preludeLen || d.SetsOff+d.SetsLen > r.Size() ||
			d.InvOff < preludeLen || d.InvOff+d.InvLen > r.Size() {
			return nil, fmt.Errorf("%w: payload offsets for topic %d out of file", ErrBadFormat, d.TopicID)
		}
		dd := d
		idx.dirs[d.TopicID] = &dd
	}
	return idx, nil
}

// SetDecodedCache attaches a decoded-object cache: parsed RR-set batch
// prefixes and inverted tables are cached across queries (with singleflight
// loading), so hot keywords skip both the disk AND the decode. Must be
// called before the index is shared between goroutines (i.e. right after
// Open); pass nil to detach. Cached values are immutable — queries trim to
// their private θ^Q_w by slicing.
func (idx *Index) SetDecodedCache(c *objcache.Cache) { idx.dec = c }

// SetQueryParallelism bounds how many keywords one Query fetches and
// decodes concurrently (<= 1 keeps the fully sequential path). Seeds and
// spreads are identical either way — artifacts are merged in keyword order
// after the parallel fetch — only latency and the sequential/random shape of
// per-query I/O stats change. Must be called before the index is shared
// between goroutines (i.e. right after Open).
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
// attached). aux is the θ-prefix length for UnitSets and ignored otherwise.
func (idx *Index) ArtifactBytes(unit string, topic int, aux int64) ([]byte, error) {
	if unit == UnitDir {
		return idx.r.ReadSegment(0, idx.prelude)
	}
	d := idx.dirs[topic]
	if d == nil {
		return nil, fmt.Errorf("%w: keyword %d not indexed", ErrNoArtifact, topic)
	}
	switch unit {
	case UnitSets:
		if aux < 1 {
			return nil, fmt.Errorf("%w: sets artifact needs a positive prefix length, got %d", ErrNoArtifact, aux)
		}
		return idx.r.ReadSegment(d.SetsOff, d.prefixBytes(aux))
	case UnitInv:
		return idx.r.ReadSegment(d.InvOff, d.InvLen)
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

// QueryResult is a wris.Result plus the disk-access profile of the query.
type QueryResult struct {
	wris.Result
	// Marginals[i] is the number of newly covered RR sets when Seeds[i]
	// was picked (the greedy trace; Theorem 3 compares these against the
	// IRR index's).
	Marginals []int
	// IO is the logical disk activity the query incurred.
	IO diskio.Stats
	// Loaded maps each query keyword to the number of RR sets fetched
	// (θ^Q_w, the Figure 5–7 "number of RR sets loaded" series).
	Loaded map[int]int
	// DecodedHits / DecodedMisses count decoded-cache lookups by this
	// query (zero when no decoded cache is attached). A hit means the
	// artifact was consumed without any read OR decode.
	DecodedHits   int64
	DecodedMisses int64
	// Partial is true when a streaming deadline stopped the query before
	// the full answer: Seeds is the certified prefix selected so far
	// (possibly empty if the deadline expired during artifact loading).
	Partial bool
}

// decCounters accumulates one query's decoded-cache traffic.
type decCounters struct {
	hits, misses int64
}

// add folds another goroutine's counters in (used after a parallel fetch
// phase joins; never called concurrently).
func (d *decCounters) add(o decCounters) {
	d.hits += o.hits
	d.misses += o.misses
}

// Plan computes θ^Q and the per-keyword allocation θ^Q_w = θ^Q·p_w of
// Algorithm 2 lines 1–4, using the φ_w values frozen into the index.
func (idx *Index) Plan(q topic.Query) (map[int]int, error) {
	if err := q.Validate(idx.hdr.NumTopics); err != nil {
		return nil, err
	}
	dirs := make([]*KeywordDir, len(q.Topics))
	for i, w := range q.Topics {
		if dirs[i] = idx.dirs[w]; dirs[i] == nil {
			return nil, fmt.Errorf("rrindex: keyword %d not indexed", w)
		}
	}
	return planTopics(&idx.hdr, q, dirs)
}

// planTopics is the Plan body over an explicit per-topic directory list —
// the directories may come from ONE index or from several keyword-sharded
// ones. θ^Q_w depends only on each keyword's (ThetaW, Phi), both frozen per
// keyword at build time, which is why a sharded deployment allocates exactly
// like a single index (the parity the sharded tests pin).
func planTopics(hdr *Header, q topic.Query, dirs []*KeywordDir) (map[int]int, error) {
	if err := q.Validate(hdr.NumTopics); err != nil {
		return nil, err
	}
	if q.K > hdr.K {
		return nil, fmt.Errorf("rrindex: Q.k=%d exceeds index cap K=%d", q.K, hdr.K)
	}
	var phiQ float64
	for _, d := range dirs {
		phiQ += d.Phi
	}
	if phiQ <= 0 {
		return nil, fmt.Errorf("rrindex: query %v has zero mass", q.Topics)
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
		pw := d.Phi / phiQ
		t := int64(thetaQ*pw + 1e-9)
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

// setsView maps one keyword's RR-set batch into the query's global set-ID
// space: set (start+i) is batch.Set(i).
type setsView struct {
	start int32
	batch *rrset.Batch
}

// kwArtifacts is one keyword's fetched-and-decoded state from the parallel
// load phase, merged sequentially afterwards.
type kwArtifacts struct {
	batch *rrset.Batch
	inv   *invTable // cache-shared table (decoded-cache path), nil otherwise
	// pverts/pids are the private pre-trimmed (vertex, RR-ID) pairs of the
	// cache-free path, pool-backed.
	pverts []uint32
	pids   []int32
	dec    decCounters
	err    error
}

// Query answers a KB-TIM query with Algorithm 2: load θ^Q_w RR sets and the
// inverted file of every query keyword, then run greedy maximum coverage.
// With SetQueryParallelism > 1 the per-keyword fetch+decode runs
// concurrently (bounded), and the merge into query state stays sequential in
// keyword order, so results are identical to the sequential path.
func (idx *Index) Query(q topic.Query) (*QueryResult, error) {
	return QueryMulti(func(int) *Index { return idx }, q)
}

// QueryCtx is Query with cancellation: ctx is checked at every keyword-load
// boundary (and passed to the remote fetcher, when one is attached), so a
// canceled caller stops paying for fetches it no longer wants.
func (idx *Index) QueryCtx(ctx context.Context, q topic.Query) (*QueryResult, error) {
	return QueryMultiCtx(ctx, func(int) *Index { return idx }, q)
}

// QueryStreamCtx is QueryCtx with anytime hooks: so.Emit receives each seed
// the moment greedy selection certifies it, and an expired so.Deadline
// returns the best certified prefix with Partial=true instead of an error.
func (idx *Index) QueryStreamCtx(ctx context.Context, q topic.Query, so wris.StreamOptions) (*QueryResult, error) {
	return QueryMultiStreamCtx(ctx, func(int) *Index { return idx }, q, so)
}

// QueryMulti answers a KB-TIM query with Algorithm 2 over a
// keyword-partitioned set of indexes: owner(w) returns the Index holding
// keyword w (nil = not indexed anywhere). Per-keyword artifacts are
// bit-identical however the keyword universe is partitioned (each keyword's
// sampling is seeded by the topic ID alone), the allocation plan depends
// only on the query keywords' own directory entries, and the merge runs in
// query-keyword order — so a query spanning N shard indexes returns exactly
// the seeds, marginals, and spread a single full index would. Each involved
// index reads through its own per-query I/O scope; the reported IO is their
// sum.
func QueryMulti(owner func(topic int) *Index, q topic.Query) (*QueryResult, error) {
	return QueryMultiCtx(context.Background(), owner, q)
}

// QueryMultiCtx is QueryMulti with cancellation: ctx is checked before every
// keyword's artifact load (the unit of work between checks, so cancellation
// latency is bounded by one fetch+decode) and once more before the coverage
// solve. A canceled query returns ctx.Err() wrapped in the usual keyword
// error context.
func QueryMultiCtx(ctx context.Context, owner func(topic int) *Index, q topic.Query) (*QueryResult, error) {
	return QueryMultiStreamCtx(ctx, owner, q, wris.StreamOptions{})
}

// errDeadline marks a keyword fetch abandoned because the streaming deadline
// expired — the anytime path's "stop now" signal, converted to a Partial
// result (never surfaced as an error) before QueryMultiStreamCtx returns.
var errDeadline = errors.New("rrindex: query deadline expired")

// QueryMultiStreamCtx is QueryMultiCtx with anytime hooks; QueryMultiCtx is
// this function with zero options, so the batch path and the streaming path
// are one body and parity holds by construction. so.Emit receives each seed
// synchronously as greedy selection certifies it, with the running spread
// lower bound of the emitted prefix. A non-zero so.Deadline turns timeout
// into degradation: the query checks the deadline at every keyword-load
// boundary and before every greedy pick, and once expired returns whatever
// prefix is certified so far with Partial=true (RR certifies nothing until
// all artifacts are merged, so a deadline during loading yields an empty
// Partial result).
func QueryMultiStreamCtx(ctx context.Context, owner func(topic int) *Index, q topic.Query, so wris.StreamOptions) (*QueryResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(q.Topics) == 0 {
		return nil, fmt.Errorf("rrindex: query needs at least one keyword")
	}
	// Resolve the owning indexes. The overwhelmingly common case — every
	// keyword on ONE index (single-engine deployments, replicate shards,
	// co-located fast paths) — is detected first so it allocates none of
	// the multi-index bookkeeping; only genuinely spanning queries pay.
	base := owner(q.Topics[0])
	if base == nil {
		return nil, fmt.Errorf("rrindex: keyword %d not indexed", q.Topics[0])
	}
	multi := false
	for _, w := range q.Topics[1:] {
		ix := owner(w)
		if ix == nil {
			return nil, fmt.Errorf("rrindex: keyword %d not indexed", w)
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
				return nil, fmt.Errorf("rrindex: shard indexes built over different datasets or caps (|V| %d vs %d, |T| %d vs %d, K %d vs %d)",
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
			return nil, fmt.Errorf("rrindex: keyword %d not indexed", w)
		}
	}
	alloc, err := planTopics(&base.hdr, q, dirOf)
	if err != nil {
		return nil, err
	}

	// Batch round: the allocation above fixes every artifact this query will
	// read, so a remote index gets all its units in ONE round trip per
	// owning backend (decoded-cache residents peeled off first). The
	// payloads ride per-index stashes that the unchanged fetch path consumes
	// unit by unit — local indexes skip this entirely.
	var stashes map[*Index]*artifact.Stash
	if !so.Expired() {
		stashes = planWire(ctx, q.Topics, idxAt, dirOf, alloc)
	}
	readerAt := func(i int) diskio.Segmented {
		s := scopeAt(i)
		if st := stashes[idxAt(i)]; st != nil {
			return &artifact.Stashed{Segmented: s, S: st}
		}
		return s
	}

	var dec decCounters
	views := make([]setsView, 0, len(q.Topics))
	lists := pool.Int32Lists(base.hdr.NumVertices)
	defer pool.PutInt32Lists(lists)
	offset := int32(0)
	loaded := make(map[int]int, len(alloc))
	var phiQ float64

	// Fetch phase: every keyword's set prefix and inverted artifact is
	// fetched and decoded into private (or cache-shared) state — nothing
	// query-global is touched until the merge. With parallelism > 1 the
	// keywords load concurrently (bounded); the merge below is sequential in
	// keyword order either way, so results are identical.
	arts := make([]kwArtifacts, len(q.Topics))
	fetchOne := func(a *kwArtifacts, ix *Index, r diskio.Segmented, d *KeywordDir, t int) {
		// The keyword-load boundary is the cancellation unit: a canceled
		// query abandons every keyword it has not started yet. The anytime
		// deadline shares the boundary, but resolves to a Partial result
		// below instead of an error.
		if a.err = ctx.Err(); a.err != nil {
			return
		}
		if so.Expired() {
			a.err = errDeadline
			return
		}
		a.batch, a.err = ix.setsPrefix(ctx, r, d, t, &a.dec)
		if a.err != nil {
			return
		}
		if ix.dec == nil {
			a.pverts, a.pids, a.err = ix.decodeInvPairs(ctx, r, d, t)
		} else {
			a.inv, a.err = ix.invTable(ctx, r, d, &a.dec)
		}
	}
	par := base.par
	for _, u := range uniq {
		if u.par > par {
			par = u.par
		}
	}
	if par > len(q.Topics) {
		par = len(q.Topics)
	}
	if par > 1 {
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for i, w := range q.Topics {
			wg.Add(1)
			go func(a *kwArtifacts, ix *Index, r diskio.Segmented, d *KeywordDir, t int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				fetchOne(a, ix, r, d, t)
			}(&arts[i], idxAt(i), readerAt(i), dirOf[i], alloc[w])
		}
		wg.Wait()
	} else {
		for i, w := range q.Topics {
			fetchOne(&arts[i], idxAt(i), readerAt(i), dirOf[i], alloc[w])
			if arts[i].err != nil {
				break // later keywords keep zero artifacts; merge reports the error
			}
		}
	}
	defer func() {
		for i := range arts {
			if arts[i].pverts != nil {
				pool.PutUint32s(arts[i].pverts)
				pool.PutInt32s(arts[i].pids)
			}
			if idxAt(i).dec == nil && arts[i].batch != nil {
				// Query-private pool-backed batches (never cache-shared).
				pool.PutUint32s(arts[i].batch.Flat)
				pool.PutInt64s(arts[i].batch.Off)
			}
		}
	}()
	deadlineHit := false
	for i, w := range q.Topics {
		a := &arts[i]
		dec.add(a.dec)
		if errors.Is(a.err, errDeadline) {
			deadlineHit = true
			continue
		}
		if a.err != nil {
			return nil, fmt.Errorf("rrindex: keyword %d: %w", w, a.err)
		}
	}
	if deadlineHit {
		// The deadline expired while artifacts were still loading: RR-greedy
		// certifies no seed before every keyword's sets are merged, so the
		// best certified prefix is empty. Report what was spent and stop.
		var io diskio.Stats
		if multi {
			for _, s := range scopes {
				io = io.Add(s.Stats())
			}
		} else {
			io = scope0.Stats()
		}
		return &QueryResult{
			Result:        wris.Result{Elapsed: time.Since(start)},
			IO:            io,
			Loaded:        loaded,
			DecodedHits:   dec.hits,
			DecodedMisses: dec.misses,
			Partial:       true,
		}, nil
	}

	// Merge pass 1: per-vertex pair counts, so the query lists can live in
	// ONE pooled arena instead of thousands of per-vertex appends.
	counts := pool.Ints(base.hdr.NumVertices)
	defer pool.PutInts(counts)
	totalPairs := 0
	for i := range arts {
		a := &arts[i]
		t := alloc[q.Topics[i]]
		if a.inv != nil {
			for j, v := range a.inv.verts {
				cut := trimLen(a.inv.lists[j], t)
				counts[v] += cut
				totalPairs += cut
			}
		} else {
			for _, v := range a.pverts {
				counts[v]++
			}
			totalPairs += len(a.pverts)
		}
	}
	arena := pool.Int32s(totalPairs)
	defer pool.PutInt32s(arena)
	pos := 0
	for v, n := range counts {
		if n > 0 {
			lists[v] = arena[pos : pos : pos+n]
			pos += n
		}
	}
	// Merge pass 2: fill in keyword order — per-vertex IDs ascend within a
	// keyword and offsets grow across keywords, exactly the order the
	// one-pass merge produced.
	for i, w := range q.Topics {
		a := &arts[i]
		d := dirOf[i]
		phiQ += d.Phi
		t := alloc[w]
		if a.inv != nil {
			for j, v := range a.inv.verts {
				list := a.inv.lists[j]
				for _, id := range list[:trimLen(list, t)] {
					lists[v] = append(lists[v], id+offset)
				}
			}
		} else {
			for j, v := range a.pverts {
				lists[v] = append(lists[v], a.pids[j]+offset)
			}
		}
		views = append(views, setsView{start: offset, batch: a.batch})
		offset += int32(t)
		loaded[w] = t
	}

	// The solve is pure CPU on fully merged state, so this is the last
	// moment a canceled query can stop early.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := int(offset)
	inst := &coverage.Instance{
		NumVertices: base.hdr.NumVertices,
		NumSets:     total,
		Lists:       lists,
	}
	// Queries carry a handful of keywords, so a reverse linear scan finds
	// the owning batch faster than anything fancier.
	members := func(id int32) []uint32 {
		for i := len(views) - 1; i >= 0; i-- {
			if id >= views[i].start {
				return views[i].batch.Set(int(id - views[i].start))
			}
		}
		return nil
	}
	// total and phiQ are both known before selection starts (the plan fixed
	// them), so the running spread lower bound of an emitted prefix uses the
	// same formula as the final EstSpread — emissions never over-promise.
	sopts := coverage.SolveOptions{Deadline: so.Deadline}
	if so.Emit != nil {
		running := 0
		sopts.Emit = func(seed uint32, marginal int) {
			running += marginal
			so.Emit(seed, marginal, float64(running)/float64(total)*phiQ)
		}
	}
	res, err := coverage.SolveOpts(inst, q.K, members, sopts)
	if err != nil {
		return nil, err
	}
	var io diskio.Stats
	if multi {
		for _, s := range scopes {
			io = io.Add(s.Stats())
		}
	} else {
		io = scope0.Stats()
	}
	return &QueryResult{
		Result: wris.Result{
			Seeds:     res.Seeds,
			EstSpread: float64(res.Covered) / float64(total) * phiQ,
			Covered:   res.Covered,
			NumRRSets: total,
			Elapsed:   time.Since(start),
		},
		Marginals:     res.Marginal,
		IO:            io,
		Loaded:        loaded,
		DecodedHits:   dec.hits,
		DecodedMisses: dec.misses,
		Partial:       res.Partial,
	}, nil
}

// planWire is the RR query's batch round. Algorithm 2 reads exactly two
// artifacts per keyword — the θ^Q_w sets prefix and the inverted region —
// and the allocation fixes both before any fetch starts, so for every
// remote index the complete wire need is known up front: it is gathered
// here, minus units already resident in that index's decoded cache, and
// moved in one FetchBatch per owning index (concurrently across indexes for
// spanning queries). Successful payloads land in per-index stashes; failed
// units are simply not stashed, so the read path fetches them again and
// surfaces errors with the usual keyword context.
func planWire(ctx context.Context, topics []int, idxAt func(int) *Index, dirOf []*KeywordDir, alloc map[int]int) map[*Index]*artifact.Stash {
	var plans map[*Index][]artifact.Request
	for i := range topics {
		ix := idxAt(i)
		if ix.fetch == nil {
			continue
		}
		d := dirOf[i]
		t := int64(alloc[topics[i]])
		var reqs []artifact.Request
		if ix.dec == nil || !ix.dec.Contains(objcache.Key{Region: regionSets, Topic: int32(d.TopicID), Aux: t}) {
			reqs = append(reqs, artifact.Request{Unit: UnitSets, Topic: d.TopicID, Aux: t})
		}
		if ix.dec == nil || !ix.dec.Contains(objcache.Key{Region: regionInv, Topic: int32(d.TopicID)}) {
			reqs = append(reqs, artifact.Request{Unit: UnitInv, Topic: d.TopicID})
		}
		if len(reqs) == 0 {
			continue
		}
		if plans == nil {
			plans = make(map[*Index][]artifact.Request)
		}
		plans[ix] = append(plans[ix], reqs...)
	}
	if plans == nil {
		return nil
	}
	stashes := make(map[*Index]*artifact.Stash, len(plans))
	for ix := range plans {
		stashes[ix] = artifact.NewStash()
	}
	artifact.Issue(ctx, plans, func(ix *Index) (artifact.Fetcher, *artifact.Stash) { return ix.fetch, stashes[ix] })
	return stashes
}

// trimLen returns how many leading IDs of the ascending list are below the
// θ^Q_w horizon t (the per-query trim of a shared, untrimmed cached list).
func trimLen(list []int32, t int) int {
	return sort.Search(len(list), func(j int) bool { return list[j] >= int32(t) })
}

// setsPrefix returns keyword d's first t RR sets as a batch, served from the
// decoded cache when one is attached (key includes the θ-prefix t, so every
// distinct prefix is its own artifact, exactly as hot repeated queries
// produce). Without a cache the batch is query-private and pool-backed; the
// caller returns it after the solve.
func (idx *Index) setsPrefix(ctx context.Context, r diskio.Segmented, d *KeywordDir, t int, dec *decCounters) (*rrset.Batch, error) {
	if idx.dec == nil {
		return idx.decodeSets(ctx, r, d, t, true)
	}
	// The loader runs under singleflight: concurrent queries share one
	// load, so it must not die with the query that happened to lead it — a
	// canceled leader would poison every live waiter with ITS ctx error.
	// Detach cancellation for the load (the result lands in the shared
	// cache either way); the canceled query still stops at its next
	// keyword-load boundary.
	lctx := context.WithoutCancel(ctx)
	v, hit, err := idx.dec.GetOrLoad(
		objcache.Key{Region: regionSets, Topic: int32(d.TopicID), Aux: int64(t)},
		func() (any, int64, error) {
			b, err := idx.decodeSets(lctx, r, d, t, false)
			if err != nil {
				return nil, 0, err
			}
			return b, int64(len(b.Flat))*4 + int64(len(b.Off))*8, nil
		})
	if err != nil {
		return nil, err
	}
	if hit {
		dec.hits++
	} else {
		dec.misses++
	}
	return v.(*rrset.Batch), nil
}

// decodeSets fetches the first t RR sets of keyword d in one sequential
// segment read through the query's scope and decodes them into a fresh
// batch. A pooled batch borrows its backing arrays from the scratch pools
// (query-private use only — NEVER for a batch published to the decoded
// cache, whose artifacts are shared and immutable).
func (idx *Index) decodeSets(ctx context.Context, r diskio.Segmented, d *KeywordDir, t int, pooled bool) (_ *rrset.Batch, err error) {
	buf, err := idx.artifact(ctx, r, UnitSets, d.TopicID, int64(t), d.SetsOff, d.prefixBytes(int64(t)))
	if err != nil {
		return nil, err
	}
	batch := &rrset.Batch{}
	if pooled {
		// Flat's decoded length is unknown before the decode; half the
		// compressed byte count is a workable hint (delta-varint members
		// average ~2 bytes) and the pool's class fall-through absorbs the
		// rest. Off is exactly t+1 entries.
		batch.Flat = pool.Uint32s(len(buf) / 2)[:0]
		batch.Off = pool.Int64s(t + 1)[:0]
		// A decode error below abandons batch before the caller ever
		// sees it; return the borrowed arrays instead of leaking them.
		defer func() {
			if err != nil {
				pool.PutUint32s(batch.Flat)
				pool.PutInt64s(batch.Off)
			}
		}()
	}
	pos := 0
	scratch := pool.Uint32s(64)[:0]
	defer func() { pool.PutUint32s(scratch) }()
	for i := 0; i < t; i++ {
		scratch = scratch[:0]
		var n int
		scratch, n, err = idx.hdr.Compression.DecodeList(scratch, buf[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		for _, v := range scratch {
			if int(v) >= idx.hdr.NumVertices {
				return nil, fmt.Errorf("%w: member %d out of range", ErrBadFormat, v)
			}
		}
		batch.Append(scratch)
	}
	return batch, nil
}

// invTable is one keyword's fully decoded inverted region: verts[i]'s
// ascending, UNtrimmed RR-ID lists are lists[i]. Shared read-only through the
// decoded cache; queries trim by slicing. Post-construction writes outside
// the constructing function are checked by kbtim-lint's cacheimmutable.
//
//kbtim:cached
type invTable struct {
	verts []uint32
	lists [][]int32
}

// decodeInvPairs is the cache-free path's inverted-region decode: keyword
// d's inverted region becomes private pool-backed (vertex, RR-ID) pairs
// trimmed to IDs < t, which the merge phase folds into the query lists. The
// caller returns both slices to the pools.
func (idx *Index) decodeInvPairs(ctx context.Context, r diskio.Segmented, d *KeywordDir, t int) ([]uint32, []int32, error) {
	// Pair count is bounded by the region's entry count; half the compressed
	// byte length is a workable capacity hint (IDs are ~2 varint bytes) and
	// the pool's class fall-through absorbs the rest.
	hint := int(d.InvLen / 2)
	verts := pool.Uint32s(hint)[:0]
	ids := pool.Int32s(hint)[:0]
	err := idx.walkInv(ctx, r, d, func(v uint32, list []uint32) {
		for _, id := range list {
			if id >= uint32(t) {
				break
			}
			verts = append(verts, v)
			ids = append(ids, int32(id))
		}
	})
	if err != nil {
		pool.PutUint32s(verts)
		pool.PutInt32s(ids)
		return nil, nil, err
	}
	return verts, ids, nil
}

// walkInv fetches keyword d's whole inverted region (one sequential read)
// and streams each (vertex, ascending RR-ID list) pair through fn; the list
// aliases decode scratch and must not be retained.
func (idx *Index) walkInv(ctx context.Context, r diskio.Segmented, d *KeywordDir, fn func(v uint32, ids []uint32)) error {
	buf, err := idx.artifact(ctx, r, UnitInv, d.TopicID, 0, d.InvOff, d.InvLen)
	if err != nil {
		return err
	}
	pos := 0
	scratch := pool.Uint32s(64)[:0]
	defer func() { pool.PutUint32s(scratch) }()
	for i := 0; i < d.NumInvLists; i++ {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 || v >= uint64(idx.hdr.NumVertices) {
			return fmt.Errorf("%w: bad inverted-list vertex", ErrBadFormat)
		}
		pos += n
		scratch = scratch[:0]
		scratch, n, err = idx.hdr.Compression.DecodeList(scratch, buf[pos:])
		if err != nil {
			return err
		}
		pos += n
		fn(uint32(v), scratch)
	}
	if pos != len(buf) {
		return fmt.Errorf("%w: inverted region has %d trailing bytes", ErrBadFormat, len(buf)-pos)
	}
	return nil
}

// invTable returns keyword d's decoded inverted table from the decoded
// cache. The artifact is decoded in full (untrimmed) because it is shared
// by queries with different allocations.
func (idx *Index) invTable(ctx context.Context, r diskio.Segmented, d *KeywordDir, dec *decCounters) (*invTable, error) {
	// Detached ctx for the same singleflight-sharing reason as setsPrefix.
	lctx := context.WithoutCancel(ctx)
	v, hit, err := idx.dec.GetOrLoad(
		objcache.Key{Region: regionInv, Topic: int32(d.TopicID)},
		func() (any, int64, error) {
			tbl, err := idx.decodeInv(lctx, r, d)
			if err != nil {
				return nil, 0, err
			}
			size := int64(len(tbl.verts)) * 28 // vert + slice header per list
			for _, l := range tbl.lists {
				size += int64(len(l)) * 4
			}
			return tbl, size, nil
		})
	if err != nil {
		return nil, err
	}
	if hit {
		dec.hits++
	} else {
		dec.misses++
	}
	return v.(*invTable), nil
}

// decodeInv fetches the whole inverted region of keyword d (one sequential
// read) and decodes every list in full, for the shared cached artifact
// (never pool-backed: cached values outlive the query).
func (idx *Index) decodeInv(ctx context.Context, r diskio.Segmented, d *KeywordDir) (*invTable, error) {
	tbl := &invTable{
		verts: make([]uint32, 0, d.NumInvLists),
		lists: make([][]int32, 0, d.NumInvLists),
	}
	err := idx.walkInv(ctx, r, d, func(v uint32, ids []uint32) {
		list := make([]int32, len(ids))
		for j, id := range ids {
			list[j] = int32(id)
		}
		tbl.verts = append(tbl.verts, v)
		tbl.lists = append(tbl.lists, list)
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
