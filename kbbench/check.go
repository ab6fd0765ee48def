package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"kbtim"
	"kbtim/internal/objcache"
)

// answer is a query's reference seeds and greedy marginals.
type answer struct {
	seeds []uint32
	marg  []int
}

// querier is the public query surface of both *kbtim.Engine and
// *kbtim.Sharded.
type querier interface {
	QueryRR(kbtim.Query) (*kbtim.Result, error)
	QueryIRR(kbtim.Query) (*kbtim.Result, error)
	DecodedCacheStats() (rr, irr objcache.Stats)
	Close() error
}

// refOptions are the servers' index-identity options plus a decoded cache
// of the given budget, which only speeds the reference up: answers do not
// depend on it.
func refOptions(decoded int64) kbtim.Options {
	d := dataSpec
	return kbtim.Options{Epsilon: d.epsilon, K: d.bigK, MaxThetaPerKeyword: d.maxTheta,
		Seed: uint64(d.dataSeed), DecodedCacheBytes: decoded}
}

// openReference opens the cluster's index files in-process through the
// public kbtim API: one Engine for a single node, a hash-sharded deployment
// over the same shard files for router-span.
func openReference(ds *kbtim.Dataset, c *cluster, w *workload, decoded int64) (querier, error) {
	if w.router {
		return kbtim.OpenShardedIndexes(ds, refOptions(decoded), c.rr, c.irr, routerBackends, kbtim.ShardHash, clients)
	}
	eng, err := kbtim.NewEngine(ds, refOptions(decoded))
	if err != nil {
		return nil, err
	}
	if c.rr != "" {
		err = eng.OpenRRIndex(c.rr)
	}
	if err == nil && c.irr != "" {
		err = eng.OpenIRRIndex(c.irr)
	}
	if err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// answerAll computes reference answers for reqs with the closed loop's
// concurrency.
func answerAll(q querier, reqs []request, into map[string]answer) error {
	out := make([]answer, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += clients {
				r := reqs[i]
				kq := kbtim.Query{Topics: r.Topics, K: r.K}
				var res *kbtim.Result
				var err error
				if r.Strategy == "rr" {
					res, err = q.QueryRR(kq)
				} else {
					res, err = q.QueryIRR(kq)
				}
				if err != nil {
					errs[i] = fmt.Errorf("reference %s: %w", r.key(), err)
					continue
				}
				out[i] = answer{seeds: res.Seeds, marg: res.Marginals}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, r := range reqs {
		into[r.key()] = out[i]
	}
	return nil
}

// distinct returns each distinct request of recs once, in first-seen order.
// With twins, on a deployment with both indexes, it adds the other
// strategy's twin of every request, for the Theorem-3 cross-check.
func distinct(recs []record, w *workload, twins bool) []request {
	seen := map[string]bool{}
	var out []request
	add := func(r request) {
		if !seen[r.key()] {
			seen[r.key()] = true
			out = append(out, r)
		}
	}
	for _, rec := range recs {
		add(rec.req)
		if twins && w.rr && w.irr {
			twin := rec.req
			twin.Strategy = map[string]string{"rr": "irr", "irr": "rr"}[twin.Strategy]
			add(twin)
		}
	}
	return out
}

// theorem3 checks that RR and IRR agree on the greedy marginals of every
// keyword set both answered (Theorem 3: the two indexes hold the same RR
// sets, so seeds may differ only where marginals tie).
func theorem3(answers map[string]answer, reqs []request) error {
	for _, r := range reqs {
		if r.Strategy != "rr" {
			continue
		}
		twin := r
		twin.Strategy = "irr"
		a, b := answers[r.key()], answers[twin.key()]
		if _, ok := answers[twin.key()]; !ok {
			continue
		}
		if !slices.Equal(a.marg, b.marg) {
			return fmt.Errorf("theorem 3 violated on topics %v k=%d: RR marginals %v, IRR marginals %v",
				r.Topics, r.K, a.marg, b.marg)
		}
	}
	return nil
}

// grade fails every record whose reply differs from its reference answer,
// and returns how many records failed in all.
func grade(recs []record, answers map[string]answer) (failed int) {
	for i := range recs {
		rec := &recs[i]
		if rec.fail == "" {
			want, ok := answers[rec.req.key()]
			switch {
			case !ok:
				rec.setFail("no reference answer")
			case !slices.Equal(rec.rep.Seeds, want.seeds) || !slices.Equal(rec.rep.Marginals, want.marg):
				rec.setFail("reply differs from the reference: seeds %v marginals %v, want %v %v",
					rec.rep.Seeds, rec.rep.Marginals, want.seeds, want.marg)
			}
		}
		if rec.fail != "" {
			failed++
		}
	}
	return failed
}

// workingSet is the decoded bytes a group of queries needs, per index.
type workingSet struct{ rr, irr int64 }

func (ws workingSet) total() int64 { return ws.rr + ws.irr }

// refBudget is the reference engines' decoded cache budget. It holds every
// group's working set on this dataset, so the bytes cached after a group
// are that working set; a larger one reads as refBudget, a lower bound.
const refBudget = 256 << 20

// referenceAnswers answers every distinct query of the timed window through
// the public kbtim API. It also returns the decoded working set of the
// queries the servers were sent: the timed window is cut into groups of
// w.group consecutive queries (one group when w.group is 0; on cold-irr a
// group is a churn window), each group's queries are answered on a fresh
// engine, and the working set is the smallest over whole groups. Twins for
// the Theorem-3 cross-check are answered after it is read.
func referenceAnswers(c *cluster, w *workload, recs []record) (map[string]answer, workingSet, error) {
	ds, err := kbtim.LoadDataset(c.graph, c.profiles)
	if err != nil {
		return nil, workingSet{}, err
	}
	size := w.group
	if size == 0 {
		size = len(recs)
	}
	groups := map[int][]record{}
	var ids []int
	for _, rec := range recs {
		id := rec.idx / size
		if groups[id] == nil {
			ids = append(ids, id)
		}
		groups[id] = append(groups[id], rec)
	}
	answers := map[string]answer{}
	ws := workingSet{-1, -1}
	for _, id := range ids {
		q, err := openReference(ds, c, w, refBudget)
		if err != nil {
			return nil, workingSet{}, err
		}
		err = answerAll(q, distinct(groups[id], w, false), answers)
		rr, irr := q.DecodedCacheStats()
		if err == nil {
			var twins []request
			for _, r := range distinct(groups[id], w, true) {
				if _, ok := answers[r.key()]; !ok {
					twins = append(twins, r)
				}
			}
			err = answerAll(q, twins, answers)
		}
		q.Close()
		if err != nil {
			return nil, workingSet{}, err
		}
		g := workingSet{rr.BytesCached, irr.BytesCached}
		if len(groups[id]) == size && (ws.rr < 0 || g.total() < ws.total()) {
			ws = g
		}
	}
	if ws.rr < 0 {
		return nil, workingSet{}, fmt.Errorf("the timed window covers no whole group of %d queries", size)
	}
	return answers, ws, nil
}
