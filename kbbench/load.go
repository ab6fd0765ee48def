package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's concurrency: one per core of the 2-core
// benchmark machine, each an ad-platform caller waiting for its answer
// before sending the next query.
const clients = 2

// ctl is the client for control-plane calls (/healthz, /stats, /keywords).
var ctl = &http.Client{Timeout: 10 * time.Second}

// reply is the terminal record of a /query?stream=1 reply. Seed records
// carry "seed"; the terminal one carries "done".
type reply struct {
	Seed             *uint32  `json:"seed"`
	Marginal         int      `json:"marginal"`
	Done             bool     `json:"done"`
	Error            string   `json:"error"`
	Seeds            []uint32 `json:"seeds"`
	Marginals        []int    `json:"marginals"`
	NumRRSets        int      `json:"num_rr_sets"`
	PartitionsLoaded int      `json:"partitions_loaded"`
	IO               struct {
		SequentialReads int64 `json:"sequential_reads"`
		RandomReads     int64 `json:"random_reads"`
		BytesRead       int64 `json:"bytes_read"`
		CacheHits       int64 `json:"cache_hits"`
		CacheMisses     int64 `json:"cache_misses"`
		DecodedHits     int64 `json:"decoded_hits"`
		DecodedMisses   int64 `json:"decoded_misses"`
	} `json:"io"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Partial   bool    `json:"partial"`
}

// record is one request as the client saw it.
type record struct {
	idx     int
	req     request
	latency time.Duration // send → terminal record
	ttfs    time.Duration // send → first seed record (0 if none)
	streamS []uint32      // seeds as streamed
	streamM []int         // marginals as streamed
	rep     reply         // the terminal record
	doneAt  time.Duration // window start → reply end (timed window only)
	fail    string        // why the request failed; "" when it succeeded
}

// transport errors, bad statuses and unparseable streams fail a request.
func (rec *record) setFail(format string, args ...any) {
	if rec.fail == "" {
		rec.fail = fmt.Sprintf(format, args...)
	}
}

// send issues one streaming query and reads its NDJSON reply to the end.
func send(hc *http.Client, url string, idx int, req request) record {
	rec := record{idx: idx, req: req}
	body, err := json.Marshal(req)
	if err != nil {
		rec.setFail("encode: %v", err)
		return rec
	}
	start := time.Now()
	resp, err := hc.Post(url+"/query?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.setFail("transport: %v", err)
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		rec.setFail("status %s: %s", resp.Status, bytes.TrimSpace(msg))
		return rec
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var r reply
			if jerr := json.Unmarshal(line, &r); jerr != nil {
				rec.setFail("bad stream record: %v", jerr)
				return rec
			}
			switch {
			case r.Seed != nil:
				if rec.ttfs == 0 {
					rec.ttfs = time.Since(start)
				}
				rec.streamS = append(rec.streamS, *r.Seed)
				rec.streamM = append(rec.streamM, r.Marginal)
			case r.Done:
				rec.latency = time.Since(start)
				rec.rep = r
				io.Copy(io.Discard, br)
				rec.checkStream()
				return rec
			}
		}
		if err != nil {
			rec.setFail("stream ended without a done record: %v", err)
			return rec
		}
	}
}

// checkStream fails a reply that reports an error, was cut short, streamed
// no seed, or streamed a sequence that differs from its terminal record.
func (rec *record) checkStream() {
	r := &rec.rep
	switch {
	case r.Error != "":
		rec.setFail("error record: %s", r.Error)
	case r.Partial:
		rec.setFail("partial reply")
	case rec.ttfs == 0:
		rec.setFail("no seed record before done")
	case !slices.Equal(rec.streamS, r.Seeds) || !slices.Equal(rec.streamM, r.Marginals):
		rec.setFail("streamed seeds differ from the terminal record")
	}
}

func newHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients
	tr.DisableCompression = true
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// sendAll sends reqs through the closed loop until every one is answered.
func sendAll(hc *http.Client, url string, reqs []request) []record {
	var next atomic.Int64
	out := make([]record, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = send(hc, url, i, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// sendFor runs the closed loop over the sequence from query index first for
// d: a client sends its next query only after its previous reply ended, and
// sends none once d has passed. It returns the records in sequence order and
// the window length, from the start until the last reply ended.
func sendFor(hc *http.Client, url string, gen *generator, first int, d time.Duration) ([]record, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var out []record
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				rec := send(hc, url, i, gen.query(i))
				rec.doneAt = time.Since(start)
				mine = append(mine, rec)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	window := time.Since(start)
	slices.SortFunc(out, func(a, b record) int { return a.idx - b.idx })
	return out, window
}
