package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"kbtim/internal/artifact"
	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/graph"
	"kbtim/internal/irrindex"
	"kbtim/internal/prop"
	"kbtim/internal/rrindex"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// tinySource builds a 6-vertex, 3-keyword RR and IRR index pair in memory
// and serves them through IndexSource, with one extra unit name ("boom")
// whose read always fails — so one batch can carry ok, not-served and
// failed records.
func tinySource(t testing.TB) Source {
	t.Helper()
	g, err := graph.FromEdges(6, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3},
		{From: 2, To: 3}, {From: 3, To: 4}, {From: 5, To: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := topic.NewBuilder(6, 3)
	for u := uint32(0); u < 6; u++ {
		if err := b.Set(u, int(u)%3, 0.7); err != nil {
			t.Fatal(err)
		}
		if err := b.Set(u, int(u+1)%3, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	prof := b.Build()
	cfg := wris.Config{Epsilon: 0.5, K: 2, PilotSets: 100, MaxThetaPerKeyword: 300, Seed: 5, Workers: 1}
	var rrBuf, irrBuf bytes.Buffer
	if _, err := rrindex.Build(&rrBuf, g, prop.IC{}, prof, cfg, rrindex.BuildOptions{Compression: codec.Delta}); err != nil {
		t.Fatal(err)
	}
	if _, err := irrindex.Build(&irrBuf, g, prop.IC{}, prof, cfg, irrindex.BuildOptions{Compression: codec.Delta, PartitionSize: 3}); err != nil {
		t.Fatal(err)
	}
	rr, err := rrindex.Open(diskio.NewMem(rrBuf.Bytes(), nil))
	if err != nil {
		t.Fatal(err)
	}
	irr, err := irrindex.Open(diskio.NewMem(irrBuf.Bytes(), nil))
	if err != nil {
		t.Fatal(err)
	}
	return failingUnit{IndexSource{RR: rr, IRR: irr}}
}

// failingUnit answers unit "boom" with a read failure (a retryable failed
// record) and passes every other unit through.
type failingUnit struct{ Source }

func (s failingUnit) ArtifactBytes(kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	if unit == "boom" {
		return nil, 0, errors.New("injected read failure")
	}
	return s.Source.ArtifactBytes(kind, unit, topic, aux)
}

// mixedReqs is one round whose reply holds ok, not-served and failed records.
var mixedReqs = []artifact.Request{
	{Unit: rrindex.UnitSets, Topic: 0, Aux: 50},
	{Unit: "bogus", Topic: 0},
	{Unit: rrindex.UnitInv, Topic: 1},
	{Unit: "boom", Topic: 2},
}

// recordReply runs one batch request through the real handler and returns
// the recorded response.
func recordReply(t testing.TB, src Source, kind string, reqs []artifact.Request) *httptest.ResponseRecorder {
	t.Helper()
	units := make([]batchUnitJSON, len(reqs))
	for i, r := range reqs {
		units[i] = batchUnitJSON{Unit: r.Unit, Topic: r.Topic, Aux: r.Aux}
	}
	body, err := json.Marshal(batchRequestJSON{Kind: kind, Units: units})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewBatchHandler(src).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("recording reply: %d %s", rec.Code, rec.Body)
	}
	return rec
}

// allocDelta returns the bytes fn allocated (process-wide TotalAlloc).
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBatchReplyParsesMixedRecords: a real reply's ok, not-served and failed
// records come back in order, each with its own outcome.
func TestBatchReplyParsesMixedRecords(t *testing.T) {
	src := tinySource(t)
	rec := recordReply(t, src, KindRR, mixedReqs)
	replies, err := parseBatchReply(rec.Body, int64(rec.Body.Len()), KindRR, mixedReqs)
	if err != nil || len(replies) != len(mixedReqs) {
		t.Fatalf("parse: %d replies, err %v", len(replies), err)
	}
	want, _, err := src.ArtifactBytes(KindRR, rrindex.UnitSets, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replies[0].Payload, want) || replies[0].Err != nil {
		t.Fatalf("ok record: %v", replies[0].Err)
	}
	if !errors.Is(replies[1].Err, ErrNotServed) {
		t.Fatalf("not-served record: %v", replies[1].Err)
	}
	if replies[2].Err != nil || len(replies[2].Payload) == 0 {
		t.Fatalf("ok record: %v", replies[2].Err)
	}
	if err := replies[3].Err; err == nil || errors.Is(err, ErrNotServed) || !strings.Contains(err.Error(), "injected read failure") {
		t.Fatalf("failed record: %v", err)
	}
}

// TestBatchReplyGarbledLengthAllocatesLittle is the regression test for a
// garbled length prefix: a 13-byte reply whose second record claims 2^29
// bytes must cost a small allocation, not the claimed 512 MiB — whether the
// reply declares its length or streams without one — and the client must
// still return the parsed first record together with the error.
func TestBatchReplyGarbledLengthAllocatesLittle(t *testing.T) {
	var body []byte
	body = append(body, batchOK)
	body = binary.AppendUvarint(body, 3)
	body = append(body, "abc"...)
	body = append(body, batchOK)
	body = binary.AppendUvarint(body, 1<<29)
	body = append(body, "xy"...)
	if len(body) != 13 {
		t.Fatalf("fixture is %d bytes, want 13", len(body))
	}
	for _, declared := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(headerVersion, strconv.Itoa(BatchVersion))
			w.Header().Set(headerIndexSize, "1000")
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			}
			w.WriteHeader(http.StatusOK)
			w.Write(body)
			if !declared {
				w.(http.Flusher).Flush() // chunked: no Content-Length
			}
		}))
		c := NewClient(srv.URL, srv.Client())
		reqs := []artifact.Request{{Unit: rrindex.UnitInv, Topic: 0}, {Unit: rrindex.UnitInv, Topic: 1}}
		var replies []artifact.Reply
		var err error
		alloc := allocDelta(func() { replies, _, err = c.FetchBatch(context.Background(), KindRR, reqs) })
		srv.Close()
		if err == nil {
			t.Fatalf("declared=%v: garbled reply accepted", declared)
		}
		if len(replies) != 1 || string(replies[0].Payload) != "abc" {
			t.Fatalf("declared=%v: parsed prefix %v, want the one intact record", declared, replies)
		}
		if alloc > 4<<20 {
			t.Fatalf("declared=%v: garbled 13-byte reply allocated %d bytes", declared, alloc)
		}
	}
}

// TestFetchRejectsMissingIndexSize: an OK one-unit reply whose advertised
// index size is 0 or missing is rejected, so a remote Open never checks
// directory offsets against a size of 0.
func TestFetchRejectsMissingIndexSize(t *testing.T) {
	src := tinySource(t)
	for _, size := range []string{"0", ""} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			NewBatchHandler(src).ServeHTTP(rec, r)
			w.Header().Set(headerVersion, rec.Header().Get(headerVersion))
			if size != "" {
				w.Header().Set(headerIndexSize, size)
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
		c := NewClient(srv.URL, srv.Client())
		if _, _, err := c.Fetch(context.Background(), KindRR, rrindex.UnitDir, 0, 0); err == nil {
			t.Fatalf("size %q: one-unit fetch accepted", size)
		}
		if _, err := c.OpenRR(context.Background()); err == nil {
			t.Fatalf("size %q: remote open accepted", size)
		}
		if ws := c.Stats(); ws.Bytes != 0 || ws.BatchedUnits != 0 {
			t.Fatalf("size %q: rejected replies counted as served: %+v", size, ws)
		}
		srv.Close()
	}
}

// FuzzBatchReply feeds arbitrary bytes to the reply parser, seeded with a
// real recorded reply (ok, not-served and failed records) and its
// truncations. Properties: no panic; never more replies than requests; a
// nil error means one reply per request; and allocation is bounded by the
// input length, with or without a declared body length.
func FuzzBatchReply(f *testing.F) {
	rec := recordReply(f, tinySource(f), KindRR, mixedReqs)
	reply := rec.Body.Bytes()
	f.Add(reply)
	for _, n := range []int{0, 1, 2, len(reply) / 3, len(reply) / 2, len(reply) - 1} {
		f.Add(reply[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, avail := range []int64{int64(len(data)), -1} {
			var replies []artifact.Reply
			var err error
			alloc := allocDelta(func() {
				replies, err = parseBatchReply(bytes.NewReader(data), avail, KindRR, mixedReqs)
			})
			if len(replies) > len(mixedReqs) {
				t.Fatalf("avail %d: %d replies for %d requests", avail, len(replies), len(mixedReqs))
			}
			if err == nil && len(replies) != len(mixedReqs) {
				t.Fatalf("avail %d: nil error with %d of %d replies", avail, len(replies), len(mixedReqs))
			}
			if bound := uint64(payloadChunk + 32<<10 + 6*len(data)); alloc > bound {
				t.Fatalf("avail %d: %d input bytes allocated %d (bound %d)", avail, len(data), alloc, bound)
			}
		}
	})
}

// FuzzBatchRequest feeds arbitrary request bodies to the batch handler over
// real indexes. Property: it answers 200 or 400 — never a 5xx, never a
// panic; per-unit failures travel as records inside a 200.
func FuzzBatchRequest(f *testing.F) {
	h := NewBatchHandler(tinySource(f))
	for _, seed := range []string{
		`{"kind":"rr","units":[{"unit":"sets","topic":0,"aux":50},{"unit":"inv","topic":1}]}`,
		`{"kind":"irr","units":[{"unit":"ip","topic":2},{"unit":"part","topic":2,"aux":0},{"unit":"dir","topic":0}]}`,
		`{"kind":"rr","units":[{"unit":"sets","topic":-1,"aux":-9223372036854775808}]}`,
		`{"kind":"irr","units":[{"unit":"part","topic":1,"aux":9223372036854775807}]}`,
		`{"kind":"xx","units":[{"unit":"boom","topic":0}]}`,
		`{"kind":"rr","units":[]}`,
		`{"kind":"rr"`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d", body, rec.Code)
		}
	})
}
