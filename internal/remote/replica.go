package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kbtim/internal/artifact"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/rrindex"
	"kbtim/internal/shardmap"
)

// ErrReplicaMismatch reports that a replica answered but serves a DIFFERENT
// index file than the rest of its group — a configuration error, not a
// transient fault. The parity invariant (remote queries bit-identical to a
// local open) only holds when every replica of a shard serves byte-identical
// files, so a mismatching replica must never receive artifact traffic.
var ErrReplicaMismatch = errors.New("remote: replica serves a different index")

// Health is the availability policy a Group consults per replica — the seam
// between the retrying fetch layer and the router's breaker state. A nil
// Health treats every replica as available and discards observations.
//
// Observe is called with the outcome of every replica round trip the Group
// makes (nil on success — including not-served replies, where the node
// answered and the artifact name simply does not resolve). It is NOT called
// when the caller's context is already canceled: an impatient client must
// not read as a replica fault.
type Health interface {
	// Available reports whether replica i should be tried at all. When no
	// replica is available the Group fails open and tries them all anyway —
	// a stale "everything is down" verdict must not fail queries that could
	// have succeeded.
	Available(i int) bool
	// Observe reports the outcome of a round trip to replica i.
	Observe(i int, err error)
}

// GroupStats is a snapshot of a Group's cumulative failover counters.
type GroupStats struct {
	// Retries counts failed fetch attempts that were re-issued to another
	// replica of the same shard.
	Retries int64
	// Failovers counts fetches that SUCCEEDED on a replica other than the
	// first one tried.
	Failovers int64
}

// dirRecord is the group's recorded view of one index kind: the prelude
// bytes and advertised file size of the first successful open, the reference
// every replica must match.
type dirRecord struct {
	prelude []byte
	size    int64
}

// Group fetches index artifacts from a set of interchangeable replicas of
// ONE shard — every replica serves a byte-identical index file, so an
// artifact fetch is idempotent across them and a failed fetch can be
// re-issued to a surviving replica without violating the parity invariant.
//
// Reads of topic w start at the shardmap.Affinity-preferred replica (hot
// keywords spread deterministically across the set) and rotate on failure:
// available replicas first, then — if every replica is reported down — the
// rest, so a stale health verdict degrades to a retry instead of an outright
// failure. A not-served reply (ErrNotServed) returns immediately: the name
// resolves the same way on every replica.
//
// A Group is safe for concurrent use.
type Group struct {
	clients []*Client
	health  Health

	mu   sync.Mutex
	dirs map[string]dirRecord // kind → reference prelude/size, set at open

	retries   atomic.Int64
	failovers atomic.Int64
}

// NewGroup returns a group over the given replica clients (at least one).
// health may be nil; see Health.
func NewGroup(clients []*Client, health Health) *Group {
	return &Group{clients: clients, health: health, dirs: make(map[string]dirRecord)}
}

// NumReplicas returns the replica count.
func (g *Group) NumReplicas() int { return len(g.clients) }

// Stats returns the cumulative failover counters.
func (g *Group) Stats() GroupStats {
	return GroupStats{Retries: g.retries.Load(), Failovers: g.failovers.Load()}
}

func (g *Group) available(i int) bool {
	return g.health == nil || g.health.Available(i)
}

func (g *Group) observe(i int, err error) {
	if g.health != nil {
		g.health.Observe(i, err)
	}
}

// tryOrder returns replica indices in preference order for topic: the
// Affinity-preferred replica first, rotating upward, with unavailable
// replicas moved to the back (kept as a last resort rather than dropped).
func (g *Group) tryOrder(topic int) []int {
	n := len(g.clients)
	start := shardmap.Affinity(topic, n)
	order := make([]int, 0, n)
	for k := 0; k < n; k++ {
		if i := (start + k) % n; g.available(i) {
			order = append(order, i)
		}
	}
	for k := 0; k < n; k++ {
		if i := (start + k) % n; !g.available(i) {
			order = append(order, i)
		}
	}
	return order
}

// recordedSize returns the advertised index size recorded for kind at open
// time (0 when the kind was never opened through this group).
func (g *Group) recordedSize(kind string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dirs[kind].size
}

func (g *Group) recordDir(kind string, prelude []byte, size int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dirs[kind] = dirRecord{prelude: append([]byte(nil), prelude...), size: size}
}

// FetchBatch retrieves a whole round of artifacts from the replica group in
// (ideally) one round trip, with whole-batch failover: a replica that fails
// mid-batch keeps every reply it fully delivered, and only the UNSERVED
// REMAINDER is re-issued to the next replica. A not-served reply is
// terminal (the name resolves identically on every replica of the shard), a
// replica advertising a different index size than the one the group opened
// serves a different file and is treated as faulty — none of its bytes are
// used — and a canceled context stops the rotation without blaming a
// replica. Always returns len(reqs) replies.
func (g *Group) FetchBatch(ctx context.Context, kind string, reqs []artifact.Request) []artifact.Reply {
	out, _ := g.fetchBatch(ctx, kind, reqs)
	return out
}

// fetchBatch is FetchBatch's failover loop; it also returns the index size
// advertised by the replicas that served units (0 if none did).
func (g *Group) fetchBatch(ctx context.Context, kind string, reqs []artifact.Request) ([]artifact.Reply, int64) {
	out := make([]artifact.Reply, len(reqs))
	if len(reqs) == 0 {
		return out, 0
	}
	pending := make([]int, len(reqs))
	for i := range pending {
		pending[i] = i
	}
	order := g.tryOrder(reqs[0].Topic)
	want := g.recordedSize(kind)
	var servedSize int64
	var lastErr error
	for attempt, i := range order {
		if len(pending) == 0 {
			break
		}
		sub := make([]artifact.Request, len(pending))
		for k, pi := range pending {
			sub[k] = reqs[pi]
		}
		replies, size, err := g.clients[i].FetchBatch(ctx, kind, sub)
		if size != 0 && want != 0 && size != want {
			// The replica serves a DIFFERENT file; none of its bytes may be
			// used (parity), so the whole sub-batch stays pending for the
			// next replica.
			err = fmt.Errorf("%w: advertises a %d-byte %s index, group opened a %d-byte one", ErrReplicaMismatch, size, kind, want)
			replies = nil
		}
		served := false
		var rest []int
		for k, pi := range pending {
			if k < len(replies) {
				rep := replies[k]
				if rep.Err == nil {
					out[pi] = rep
					served = true
					continue
				}
				if errors.Is(rep.Err, ErrNotServed) {
					out[pi] = rep
					continue
				}
				lastErr = rep.Err
			}
			rest = append(rest, pi)
		}
		pending = rest
		if served {
			servedSize = size
		}
		if err != nil {
			if ctx.Err() != nil {
				// The caller gave up; do not blame the replica, do not keep trying.
				for _, pi := range pending {
					out[pi] = artifact.Reply{Err: err}
				}
				return out, servedSize
			}
			g.observe(i, err)
			lastErr = err
		} else {
			g.observe(i, nil)
		}
		if served && attempt > 0 {
			g.failovers.Add(1)
		}
		if len(pending) > 0 && attempt < len(order)-1 {
			g.retries.Add(1)
		}
	}
	for _, pi := range pending {
		out[pi] = artifact.Reply{Err: fmt.Errorf("remote: all %d replicas failed, last: %w", len(order), lastErr)}
	}
	return out, servedSize
}

// Fetch retrieves one artifact from any replica — a one-request call into
// the FetchBatch failover loop — returning its payload and the index size
// the serving replica advertised.
func (g *Group) Fetch(ctx context.Context, kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	out, size := g.fetchBatch(ctx, kind, []artifact.Request{{Unit: unit, Topic: topic, Aux: aux}})
	if err := out[0].Err; err != nil {
		return nil, 0, err
	}
	return out[0].Payload, size, nil
}

// groupFetcher binds a group to one index kind — the artifact.Fetcher that
// lets a spanning query fail over to a surviving replica mid-round.
type groupFetcher struct {
	g    *Group
	kind string
}

func (f groupFetcher) FetchBatch(ctx context.Context, reqs []artifact.Request) []artifact.Reply {
	return f.g.FetchBatch(ctx, f.kind, reqs)
}

// openDir fetches kind's prelude from the first replica that answers,
// records it as the group's reference view, and returns the stub reader a
// remote Open parses it through.
func (g *Group) openDir(ctx context.Context, kind, unit string) (*stubReader, error) {
	prelude, size, err := g.Fetch(ctx, kind, unit, 0, 0)
	if err != nil {
		return nil, err
	}
	g.recordDir(kind, prelude, size)
	return &stubReader{prelude: prelude, size: size, counter: diskio.NewCounter()}, nil
}

// OpenRR opens the shard's RR index through the group: the dir artifact
// comes from the first replica that answers (recorded as the group's
// reference view), and the returned index reads every payload artifact
// through the failover FetchBatch.
func (g *Group) OpenRR(ctx context.Context) (*rrindex.Index, error) {
	r, err := g.openDir(ctx, KindRR, rrindex.UnitDir)
	if err != nil {
		return nil, err
	}
	idx, err := rrindex.Open(r)
	if err != nil {
		return nil, err
	}
	idx.SetFetcher(groupFetcher{g: g, kind: KindRR})
	return idx, nil
}

// OpenIRR opens the shard's IRR index through the group; see OpenRR.
func (g *Group) OpenIRR(ctx context.Context) (*irrindex.Index, error) {
	r, err := g.openDir(ctx, KindIRR, irrindex.UnitDir)
	if err != nil {
		return nil, err
	}
	idx, err := irrindex.Open(r)
	if err != nil {
		return nil, err
	}
	idx.SetFetcher(groupFetcher{g: g, kind: KindIRR})
	return idx, nil
}

// Validate checks replica i against the group's recorded view of kind: it
// fetches the dir artifact directly from that replica and requires a
// byte-identical prelude and the same advertised size. This is the admission
// check for a replica that was unreachable when the group opened — until it
// passes, the replica must not serve artifact traffic (the router gates it
// behind its breaker). A network failure returns the transport error; a
// reachable replica serving different bytes returns ErrReplicaMismatch.
// Validate itself reports nothing to Health — the caller owns that verdict.
func (g *Group) Validate(ctx context.Context, i int, kind string) error {
	g.mu.Lock()
	rec, ok := g.dirs[kind]
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("remote: group never opened a %s index to validate against", kind)
	}
	unit := rrindex.UnitDir
	if kind == KindIRR {
		unit = irrindex.UnitDir
	}
	prelude, size, err := g.clients[i].Fetch(ctx, kind, unit, 0, 0)
	if err != nil {
		return err
	}
	if size != rec.size || !bytes.Equal(prelude, rec.prelude) {
		return fmt.Errorf("%w: %s dir is %d bytes in a %d-byte file, group reference is %d bytes in a %d-byte file",
			ErrReplicaMismatch, kind, len(prelude), size, len(rec.prelude), rec.size)
	}
	return nil
}
