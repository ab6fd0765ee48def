package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"
)

// statsDelta is the change of the counters the metrics use over the timed
// window, summed over servers unless noted.
type statsDelta struct {
	failed, rejected, canceled    int64 // front server only
	decHits, decMisses, decShared int64
	decEntries                    int64
	cpuAll, cpuFront              time.Duration
	proxied, scattered            int64
	retries, failovers            int64
	fetchRequests, batchedUnits   int64
	wireBytes                     int64
}

func diffStats(a, b *snapshot) statsDelta {
	var d statsDelta
	fa, fb := a.stats[0], b.stats[0]
	d.failed = fb.Failed - fa.Failed
	d.rejected = fb.Rejected - fa.Rejected
	d.canceled = fb.Canceled - fa.Canceled
	for i := range a.stats {
		for _, p := range [][2]decodedStats{{a.stats[i].RRDecoded, b.stats[i].RRDecoded}, {a.stats[i].IRRDecoded, b.stats[i].IRRDecoded}} {
			d.decHits += p[1].Hits - p[0].Hits
			d.decMisses += p[1].Misses - p[0].Misses
			d.decShared += p[1].Shared - p[0].Shared
			d.decEntries += p[1].Entries - p[0].Entries
		}
		cpu := b.procs[i].cpu - a.procs[i].cpu
		d.cpuAll += cpu
		if i == 0 {
			d.cpuFront = cpu
		}
	}
	if ra, rb := fa.Router, fb.Router; ra != nil && rb != nil {
		d.proxied = rb.Proxied - ra.Proxied
		d.scattered = rb.Scattered - ra.Scattered
		d.retries = rb.Retries - ra.Retries
		d.failovers = rb.Failovers - ra.Failovers
		d.fetchRequests = rb.FetchRequests - ra.FetchRequests
		d.batchedUnits = rb.BatchedUnits - ra.BatchedUnits
		for i := range rb.Backends {
			if i < len(ra.Backends) {
				d.wireBytes += rb.Backends[i].WireBytes - ra.Backends[i].WireBytes
			}
		}
	}
	return d
}

// diskReplies are the replies an engine answered from its own index files:
// all of them, except on router-span, where scattered replies report the
// router's wire transfers instead.
func diskReplies(w *workload, recs []record) []record {
	if !w.router {
		return recs
	}
	var out []record
	for _, rec := range recs {
		if !isScattered(rec.req.Topics) {
			out = append(out, rec)
		}
	}
	return out
}

// checkPremise fails a run whose workload did not stress what it claims to.
func checkPremise(w *workload, recs []record, d statsDelta, ws workingSet, front *serverStats) error {
	switch {
	case w.hot > 0:
		var reads int64
		for _, rec := range recs {
			reads += rec.rep.IO.SequentialReads + rec.rep.IO.RandomReads
		}
		if reads != 0 {
			return fmt.Errorf("hot-mix made %d disk reads in the timed window, want 0", reads)
		}
		if hr := ratio(d.decHits+d.decShared, d.decHits+d.decShared+d.decMisses); hr < 0.99 {
			return fmt.Errorf("hot-mix decoded hit rate %.4f, want >= 0.99", hr)
		}
	case w.window > 0:
		budget := front.IRRDecoded.BudgetBytes
		if ws.irr < 4*budget {
			return fmt.Errorf("cold-irr window working set %d bytes is under 4x the decoded budget of %d bytes", ws.irr, budget)
		}
		// Every miss inserts at most one entry, so misses beyond the growth
		// in entries were evicted.
		if d.decMisses == 0 || d.decMisses-d.decEntries <= 0 {
			return fmt.Errorf("cold-irr saw %d decoded misses and %d evictions, want both > 0", d.decMisses, d.decMisses-d.decEntries)
		}
	case w.router:
		if sf := ratio(d.scattered, d.scattered+d.proxied); sf < 0.5 {
			return fmt.Errorf("router-span scatter fraction %.3f, want >= 0.5", sf)
		}
		if budget := front.RRDecoded.BudgetBytes + front.IRRDecoded.BudgetBytes; ws.total() <= budget {
			return fmt.Errorf("router-span working set of %d queries is %d bytes, not over the router's decoded budget of %d bytes", w.group, ws.total(), budget)
		}
		if d.batchedUnits <= d.fetchRequests {
			return fmt.Errorf("router-span batched %d units over %d fetch requests, want more units than requests", d.batchedUnits, d.fetchRequests)
		}
	}
	return nil
}

func (m *measured) endToEnd(recs []record, window time.Duration, after *snapshot) {
	var lat, ttfs []time.Duration
	for _, rec := range recs {
		if rec.fail == "" {
			lat = append(lat, rec.latency)
			ttfs = append(ttfs, rec.ttfs)
		}
	}
	var hwm int64
	for _, p := range after.procs {
		hwm += p.hwmKB
	}
	m.e2e["qps"] = medianRate(recs, window)
	m.e2e["latency_p50_ms"] = ms(pct(lat, 0.5))
	m.e2e["latency_p90_ms"] = ms(pct(lat, 0.9))
	m.e2e["ttfs_p50_ms"] = ms(pct(ttfs, 0.5))
	m.e2e["ttfs_p90_ms"] = ms(pct(ttfs, 0.9))
	m.e2e["success_rate"] = 1 - float64(m.failed)/float64(m.attempted)
	m.e2e["peak_rss_mb"] = float64(hwm) / 1024
	m.notes = append(m.notes, fmt.Sprintf("latency and ttfs percentiles over %d correct replies in a %.2fs window", len(lat), window.Seconds()))
}

func (m *measured) layers(w *workload, recs []record, d statsDelta, ws workingSet) {
	n := float64(len(recs))
	var overhead, elapsed []time.Duration
	var irrParts, irrSets, irrN, rrSets, rrN float64
	for _, rec := range recs {
		if rec.fail != "" {
			continue
		}
		e := time.Duration(rec.rep.ElapsedMS * float64(time.Millisecond))
		overhead = append(overhead, rec.latency-e)
		elapsed = append(elapsed, e)
		if rec.req.Strategy == "irr" {
			irrParts += float64(rec.rep.PartitionsLoaded)
			irrSets += float64(rec.rep.NumRRSets)
			irrN++
		} else {
			rrSets += float64(rec.rep.NumRRSets)
			rrN++
		}
	}
	var reads, readBytes, byteHits, byteMisses float64
	dr := diskReplies(w, recs)
	for _, rec := range dr {
		io := rec.rep.IO
		reads += float64(io.SequentialReads + io.RandomReads)
		readBytes += float64(io.BytesRead)
		byteHits += float64(io.CacheHits)
		byteMisses += float64(io.CacheMisses)
	}
	L := m.layer
	L["error_rate"] = float64(m.failed) / n
	L["serve.replies"] = float64(len(overhead))
	L["serve.overhead_ms"] = ms(pct(overhead, 0.5))
	L["serve.cpu_ms_per_query"] = ms(d.cpuAll) / n
	L["serve.failed"] = float64(d.failed)
	L["serve.rejected"] = float64(d.rejected)
	L["serve.canceled"] = float64(d.canceled)
	L["router.scatter_frac"] = ratio(d.scattered, d.scattered+d.proxied)
	L["router.cpu_ms_per_query"], L["backend.cpu_ms_per_query"] = 0, 0
	if w.router {
		L["router.cpu_ms_per_query"] = ms(d.cpuFront) / n
		L["backend.cpu_ms_per_query"] = ms(d.cpuAll-d.cpuFront) / n
	}
	L["router.failovers"] = float64(d.failovers)
	L["router.retries"] = float64(d.retries)
	L["remote.round_trips_per_query"] = float64(d.fetchRequests) / n
	L["remote.units_per_round_trip"] = ratio(d.batchedUnits, d.fetchRequests)
	L["remote.wire_kb_per_query"] = float64(d.wireBytes) / 1024 / n
	L["engine.elapsed_p50_ms"] = ms(pct(elapsed, 0.5))
	L["irrindex.partitions_per_query"] = safeDiv(irrParts, irrN)
	L["irrindex.rr_sets_per_query"] = safeDiv(irrSets, irrN)
	L["rrindex.rr_sets_per_query"] = safeDiv(rrSets, rrN)
	L["objcache.hit_rate"] = ratio(d.decHits+d.decShared, d.decHits+d.decShared+d.decMisses)
	L["objcache.misses_per_query"] = float64(d.decMisses) / n
	L["objcache.shared_per_query"] = float64(d.decShared) / n
	L["objcache.working_set_mb"] = float64(ws.total()) / (1 << 20)
	L["diskio.reads_per_query"] = safeDiv(reads, float64(len(dr)))
	L["diskio.read_kb_per_query"] = safeDiv(readBytes/1024, float64(len(dr)))
	L["diskio.byte_cache_hit_rate"] = safeDiv(byteHits, byteHits+byteMisses)
}

// traced replays the timed window's first queries in-process on a plain
// and a traced replica of the query path and reports the traced ledger.
// The traced median span less the plain one is the tracing overhead.
func (m *measured) traced(ctx context.Context, c *cluster, w *workload, warm []request,
	recs []record, answers map[string]answer, front *serverStats) error {
	var set []request
	for _, rec := range recs {
		set = append(set, rec.req)
	}
	if w.router {
		// The router proxies a query whole to the one backend that owns all
		// its keywords; only scattered queries run its own query path.
		warm, set = scatteredOnly(warm), scatteredOnly(set)
	}
	set = set[:min(len(set), maxReplay)]
	tr, err := replay(ctx, c, w, front, warm, set, answers)
	if err != nil {
		return err
	}
	rec := reconcileErr(tr.ledgers, tr.plainSpans)
	if rec > maxReconcile {
		return fmt.Errorf("traced ledgers sum to %.1f%% off the untraced query spans, want <= %.0f%%", 100*rec, 100*maxReconcile)
	}
	n := float64(len(tr.ledgers))
	var spans []time.Duration
	var disk, remote, bytes float64
	var self, plan, first, solve, cnt [2]float64 // [rr, irr]
	for _, l := range tr.ledgers {
		spans = append(spans, l.span)
		disk += ms(l.layer[layerDisk])
		remote += ms(l.layer[layerRemote])
		bytes += float64(l.bytes)
		s := 0
		if l.strategy == "irr" {
			s = 1
		}
		cnt[s]++
		self[s] += ms(l.self)
		plan[s] += ms(l.plan)
		first[s] += ms(l.firstEmit)
		solve[s] += ms(l.solve)
	}
	L := m.layer
	L["trace.queries"] = n
	L["trace.overhead_ms"] = ms(pct(spans, 0.5) - pct(tr.plainSpans, 0.5))
	L["trace.reconcile_err_pct"] = 100 * rec
	L["diskio.read_ms_per_query"] = safeDiv(disk, n)
	L["remote.fetch_ms_per_query"] = safeDiv(remote, n)
	L["codec.decoded_kb_per_query"] = safeDiv(bytes/1024, n)
	L["objcache.evictions_per_query"] = safeDiv(float64(tr.evictions), n)
	L["go.alloc_kb_per_query"] = safeDiv(float64(tr.allocBytes)/1024, n)
	for s, p := range []string{"rrindex", "irrindex"} {
		L[p+".self_ms"] = safeDiv(self[s], cnt[s])
		L[p+".plan_ms"] = safeDiv(plan[s], cnt[s])
		L[p+".first_emit_ms"] = safeDiv(first[s], cnt[s])
	}
	L["rrindex.solve_ms"] = safeDiv(solve[0], cnt[0])
	m.notes = append(m.notes, fmt.Sprintf("traced run: %d queries replayed in-process, sequentially", len(tr.ledgers)))
	return nil
}

// maxReconcile is how far, as a share, the traced ledgers may miss the
// untraced query spans.
const maxReconcile = 0.05

// medianRate is the median over the window's whole seconds of the correct
// replies that ended in each: a throughput that a few seconds of
// interference from outside the benchmark do not move.
func medianRate(recs []record, window time.Duration) float64 {
	slots := make([]float64, int(window/time.Second))
	for _, rec := range recs {
		if i := int(rec.doneAt / time.Second); rec.fail == "" && i < len(slots) {
			slots[i]++
		}
	}
	slices.Sort(slots)
	return slots[len(slots)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int64) float64 { return safeDiv(float64(a), float64(b)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct is the nearest-rank p-quantile of ds.
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[int(math.Ceil(p*float64(len(s))))-1]
}
