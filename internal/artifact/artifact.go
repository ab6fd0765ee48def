// Package artifact is the fetch seam of a remote-backed index: the
// (unit, topic, aux) request naming one raw index segment, the per-unit
// reply, the one Fetcher interface that moves a batch of them, the
// per-query stash that carries planned payloads from the round planner to
// the decode path, and the two pieces of code both index packages share —
// the issue loop that fills stashes (Issue) and the choke point that reads
// one unit from the stash or the wire (Read).
//
// It sits below internal/rrindex, internal/irrindex and internal/remote:
// the index packages call through Fetcher, and internal/remote implements
// it, so the request and reply shapes must live in a package below all
// three.
package artifact

import (
	"context"
	"fmt"
	"sync"

	"kbtim/internal/diskio"
)

// Request names one raw index artifact, relative to an index kind the caller
// has already bound (a fetcher is per-kind, so kind never appears here). The
// unit strings are the ones the index packages export (UnitSets, UnitInv,
// UnitIP, UnitPart, ...); aux is the unit-specific argument — θ-prefix length
// for "sets", partition index for "part", zero otherwise.
type Request struct {
	Unit  string
	Topic int
	Aux   int64
}

// Reply is the outcome of one Request within a batch: the raw payload bytes
// exactly as stored in the index file, or the error that unit produced. A
// batch isolates failures per unit — one missing keyword must not fail the
// round's other fetches.
type Reply struct {
	Payload []byte
	Err     error
}

// Fetcher is the pluggable byte source that lets an index be backed by a
// remote node instead of a local file. FetchBatch moves a whole round of
// artifacts of one bound index in (ideally) one wire round trip and must
// return exactly len(reqs) replies in request order, isolating failures per
// unit. Every successful payload must be exactly the bytes the local file
// holds for that unit (the index packages' ArtifactBytes is the canonical
// producer), so decoded artifacts — and therefore query results — are
// bit-identical to a local open of the same file.
type Fetcher interface {
	FetchBatch(ctx context.Context, reqs []Request) []Reply
}

// Stash is a per-query holding area for batch-fetched payloads: the round
// planner Puts every reply, and the decode path Takes each unit at the exact
// point it would otherwise have gone to the wire. Take removes the entry, so
// a payload is consumed (and its I/O accounted) exactly once, and anything
// left over is simply garbage-collected with the query.
//
// It is mutex-protected because speculative prefetch goroutines from a prior
// round may still be draining while the main goroutine stashes the next
// round's batch.
type Stash struct {
	mu sync.Mutex
	m  map[Request][]byte
}

// NewStash returns an empty stash.
func NewStash() *Stash {
	return &Stash{m: make(map[Request][]byte)}
}

// Put stores a payload for req, replacing any previous entry.
func (s *Stash) Put(req Request, payload []byte) {
	s.mu.Lock()
	s.m[req] = payload
	s.mu.Unlock()
}

// Take removes and returns the payload stored for req, if any.
func (s *Stash) Take(req Request) ([]byte, bool) {
	s.mu.Lock()
	b, ok := s.m[req]
	if ok {
		delete(s.m, req)
	}
	s.mu.Unlock()
	return b, ok
}

// Has reports whether a payload is currently stashed for req, without
// consuming it. Planners use it to skip re-fetching a unit that an earlier
// round already brought over.
func (s *Stash) Has(req Request) bool {
	s.mu.Lock()
	_, ok := s.m[req]
	s.mu.Unlock()
	return ok
}

// Stashed decorates a query's I/O scope with a stash of batch-fetched
// payloads. Read type-asserts for it and consumes stashed bytes before
// going to the wire, so the batch seam needs no signature changes anywhere
// in the decode chain — the stash rides the reader every fetch already
// receives. Reads that miss the stash (local segments, prelude reads,
// un-planned units) pass through to the embedded scope unchanged.
type Stashed struct {
	diskio.Segmented
	S *Stash
}

// Issue moves every key's plan in one FetchBatch through the fetcher and
// into the stash that dest names for that key — concurrently across keys,
// so a spanning query's backends are hit in parallel — and stashes each
// successful payload. Failed units are simply not stashed: Read fetches
// them again on its own and surfaces the error with the unit's context.
func Issue[K comparable](ctx context.Context, plans map[K][]Request, dest func(K) (Fetcher, *Stash)) {
	var wg sync.WaitGroup
	for k, reqs := range plans {
		f, stash := dest(k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, rep := range f.FetchBatch(ctx, reqs) {
				if rep.Err == nil {
					stash.Put(reqs[i], rep.Payload)
				}
			}
		}()
	}
	wg.Wait()
}

// Read returns one artifact's raw bytes for a query over a remote-backed
// index: the stashed payload when a planned round already moved it (the
// stash rides r), else a one-unit FetchBatch through f. off/length locate
// the unit in the index file. The payload must be exactly length bytes — a
// cheap end-to-end check that the remote node serves the same index this
// directory describes — and its transfer is recorded in r's counter at
// consumption, so wire bytes surface in the query's usual I/O stats.
func Read(ctx context.Context, f Fetcher, r diskio.Segmented, req Request, off, length int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var b []byte
	st, ok := r.(*Stashed)
	if ok {
		b, ok = st.S.Take(req)
	}
	if !ok {
		rep := f.FetchBatch(ctx, []Request{req})[0]
		if rep.Err != nil {
			return nil, rep.Err
		}
		b = rep.Payload
	}
	if int64(len(b)) != length {
		return nil, fmt.Errorf("artifact: remote %s artifact for keyword %d is %d bytes, directory says %d",
			req.Unit, req.Topic, len(b), length)
	}
	r.Counter().Record(off, len(b))
	return b, nil
}
