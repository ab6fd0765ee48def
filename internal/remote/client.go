package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kbtim/internal/artifact"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/rrindex"
)

// ErrNotServed reports that the node answered but does not serve the
// requested artifact (a not-served reply record) — "that node has no such
// index/keyword", as opposed to the node being unreachable. Routers probe
// index kinds with it.
var ErrNotServed = errors.New("remote: artifact not served")

// WireStats is a snapshot of a client's cumulative transfer counters.
type WireStats struct {
	// Fetches is the number of artifact round trips (batch POSTs) that
	// returned 200.
	Fetches int64
	// Bytes is the total payload bytes those fetches carried.
	Bytes int64
	// BatchedUnits is the number of artifact units those fetches delivered.
	// BatchedUnits/Fetches is the units-per-request ratio; planned rounds
	// keep it above 1, and a lone one-unit fetch counts 1 unit.
	BatchedUnits int64
}

// Add returns the element-wise sum of two snapshots.
func (w WireStats) Add(o WireStats) WireStats {
	w.Fetches += o.Fetches
	w.Bytes += o.Bytes
	w.BatchedUnits += o.BatchedUnits
	return w
}

// Client fetches index artifacts from one serving node. It is safe for
// concurrent use; every open index created through it shares the client's
// transfer counters, so a router can report per-backend wire traffic.
type Client struct {
	base string // ".../internal/artifacts"
	hc   *http.Client

	fetches      atomic.Int64
	bytes        atomic.Int64
	batchedUnits atomic.Int64
}

// NewTransport returns an http.Transport tuned for artifact traffic to a
// small, fixed set of backends: every fetch round should ride an already-warm
// connection, so the per-host idle pool must hold the router's full fetch
// parallelism (the stock http.DefaultTransport keeps only 2 idle connections
// per host and silently closes the rest, re-paying TCP setup every round).
// maxIdlePerHost <= 0 selects the default of 32.
func NewTransport(maxIdlePerHost int) *http.Transport {
	if maxIdlePerHost <= 0 {
		maxIdlePerHost = 32
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // unlimited pool overall; the per-host knob governs
	t.MaxIdleConnsPerHost = maxIdlePerHost
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// NewClient returns a client against the node at base (e.g.
// "http://host:8080" — BatchPath is appended). hc may be nil for a default
// client with a 30s timeout over a keep-alive transport (NewTransport);
// routers multiplexing many spanning queries should pass their own shared
// tuned client.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second, Transport: NewTransport(0)}
	}
	return &Client{base: base + BatchPath, hc: hc}
}

// Stats returns the cumulative wire counters.
func (c *Client) Stats() WireStats {
	return WireStats{
		Fetches:      c.fetches.Load(),
		Bytes:        c.bytes.Load(),
		BatchedUnits: c.batchedUnits.Load(),
	}
}

// FetchBatch retrieves a whole round of artifacts of one kind in a single
// round trip, returning one reply per request in order plus the index file
// size the node advertised (0 when no unit succeeded). Per-unit failures are
// carried in the replies, not the error.
//
// A non-nil error means the round trip itself failed; the returned replies
// are then the fully parsed PREFIX (possibly empty) of the response, so the
// caller can re-issue just the unserved remainder elsewhere.
func (c *Client) FetchBatch(ctx context.Context, kind string, reqs []artifact.Request) ([]artifact.Reply, int64, error) {
	if len(reqs) == 0 {
		return nil, 0, nil
	}
	units := make([]batchUnitJSON, len(reqs))
	for i, r := range reqs {
		units[i] = batchUnitJSON{Unit: r.Unit, Topic: r.Topic, Aux: r.Aux}
	}
	body, err := json.Marshal(batchRequestJSON{Kind: kind, Units: units})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("remote: batch of %d %s units: %s: %s", len(reqs), kind, resp.Status, bytes.TrimSpace(msg))
	}
	if v := resp.Header.Get(headerVersion); v != strconv.Itoa(BatchVersion) {
		return nil, 0, fmt.Errorf("remote: node speaks artifact protocol %q, this client speaks %d", v, BatchVersion)
	}
	size, err := strconv.ParseInt(resp.Header.Get(headerIndexSize), 10, 64)
	if err != nil || size < 0 {
		return nil, 0, fmt.Errorf("remote: missing or bad %s header %q", headerIndexSize, resp.Header.Get(headerIndexSize))
	}
	c.fetches.Add(1)
	replies, err := parseBatchReply(resp.Body, resp.ContentLength, kind, reqs)
	var served, n int64
	for _, r := range replies {
		if r.Err == nil {
			served++
			n += int64(len(r.Payload))
		}
	}
	if served > 0 && size == 0 {
		// Served bytes with no file size to check them against: a remote
		// open would validate directory offsets against 0.
		return nil, 0, fmt.Errorf("remote: reply serves %d units but advertises a %s of 0", served, headerIndexSize)
	}
	c.bytes.Add(n)
	c.batchedUnits.Add(served)
	return replies, size, err
}

// Fetch retrieves one artifact — a one-unit FetchBatch — returning its
// payload and the index file size the node advertised alongside it.
func (c *Client) Fetch(ctx context.Context, kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	replies, size, err := c.FetchBatch(ctx, kind, []artifact.Request{{Unit: unit, Topic: topic, Aux: aux}})
	if err != nil {
		return nil, 0, err
	}
	if err := replies[0].Err; err != nil {
		return nil, 0, err
	}
	return replies[0].Payload, size, nil
}

// stubReader backs a remote-opened index: it serves the already-fetched
// prelude to Open's header/directory reads and reports the advertised file
// size for offset validation. Payload reads never reach it — they go
// through the fetcher — so anything past the prelude is an error, loudly
// catching any future read path that forgot to be fetch-aware.
type stubReader struct {
	prelude []byte
	size    int64
	counter *diskio.Counter
}

func (s *stubReader) ReadSegment(off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || off+length > int64(len(s.prelude)) {
		return nil, fmt.Errorf("remote: segment [%d,%d) outside the fetched prelude (%d bytes) — remote indexes read payloads through the fetcher only",
			off, off+length, len(s.prelude))
	}
	b := make([]byte, length)
	copy(b, s.prelude[off:off+length])
	return b, nil
}

func (s *stubReader) Size() int64              { return s.size }
func (s *stubReader) Counter() *diskio.Counter { return s.counter }

// OpenRR opens the node's RR index remotely, as a one-replica Group: one
// "dir" fetch brings the header and keyword directory over (parsed by the
// exact code a local open runs, including offset validation against the
// advertised file size), and the returned index fetches every payload
// artifact through this client. Attach a decoded cache (SetDecodedCache) to
// keep hot artifacts on this side of the wire.
func (c *Client) OpenRR(ctx context.Context) (*rrindex.Index, error) {
	return NewGroup([]*Client{c}, nil).OpenRR(ctx)
}

// OpenIRR opens the node's IRR index remotely; see OpenRR.
func (c *Client) OpenIRR(ctx context.Context) (*irrindex.Index, error) {
	return NewGroup([]*Client{c}, nil).OpenIRR(ctx)
}
