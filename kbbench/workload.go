package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// dataSpec is the dataset and index identity every workload shares. The
// dataset seed is fixed, so a run's set-up cost does not depend on its
// workload seed; only the query sequence does.
//
// The values are the evaluation harness's quick-suite defaults
// (internal/bench DefaultConfig: the paper's Table 2 scaled ~1:1000): the
// News family at its smallest Table 2 size, 16 topics, ε 0.4, K 50 and
// δ 20. Only the θ cap is scaled, from 120000 to 6000. The RR decoded cache
// keys each keyword's RR sets by the query's θ-prefix length, so every
// distinct keyword set holds its own prefixes; uncapped (about 25000 sets
// per keyword) one five-keyword query decodes about 27 MB of RR artifacts,
// and no hot set of more than two keyword sets would fit the default
// 64 MiB decoded cache that hot-mix needs.
var dataSpec = struct {
	kind     string
	users    int
	degree   float64
	topics   int
	dataSeed int
	epsilon  float64
	bigK     int
	maxTheta int
	delta    int
}{kind: "news", users: 2000, degree: 5.2, topics: 16, dataSeed: 1, epsilon: 0.4, bigK: 50, maxTheta: 6000, delta: 20}

// queryK and queryLen are the paper's default query shape (Q.k 30 and
// |Q.T| 5; internal/bench DefaultK and DefaultLen), used by every workload.
const queryK, queryLen = 30, 5

// routerBackends is router-span's shard count: one backend per shard.
const routerBackends = 2

// workload is one traffic mix. Every query of a run is a pure function of
// (workload, seed, query index, keyword universe), never of a timer, so the
// servers see the same sequence on every run with the same seed.
type workload struct {
	name string

	rr, irr bool // which indexes the deployment serves
	router  bool // a -router in front of routerBackends hash-shard backends

	// hot > 0 restricts keywords to the first hot keywords of the universe,
	// drawn with probability ∝ 1/rank.
	hot int

	// window > 0 restricts keywords to an active window of that many
	// keywords, which advances by step keywords every every queries.
	window, step, every int

	// warm is the number of queries from the start of the sequence sent
	// before the timed window (hot-mix instead sends its whole query space).
	warm int

	// group is the number of consecutive timed-window queries whose
	// decoded working set is measured together (0: the whole window).
	group int

	// decodedMB and byteMB, when nonzero, are the cache budgets the front
	// server is started with; zero leaves kbtim-serve's default. This
	// dataset's whole index decodes to well under the 64 MiB default, so
	// the workloads that must miss set a budget their working set outgrows.
	decodedMB, byteMB int
}

// workloads are listed, with the reason for each, in BENCHMARK.json.
var workloads = []*workload{
	{
		// The hot set's decoded artifacts (its 21 keyword sets' RR
		// prefixes and the IRR partitions, 13-16 MB) fit the default
		// decoded cache, so after warm-up no query reads disk or decodes:
		// time goes to the solve layers and serve. A codec change should
		// not move it.
		name: "hot-mix",
		rr:   true, irr: true,
		hot: 7,
	},
	{
		// The churn window's working set is several times the decoded
		// cache, and the byte cache is smaller than the index: objcache
		// misses and evictions, disk reads and decode do most of the work.
		// Both budgets are at their smallest nonzero value.
		name:   "cold-irr",
		irr:    true,
		window: 12, step: 4, every: 60, group: 60,
		warm:      60,
		decodedMB: 1, byteMB: 1,
	},
	{
		// Most five-keyword queries span both shards, and the working set
		// of a hundred queries, about 45 MB, is several times the router's
		// decoded budget of 8 MiB per index: the remote wire, fan-out and
		// router-side decode dominate. It would fit the 64 MiB default,
		// because the RR prefix lengths of different keyword sets repeat.
		name: "router-span",
		rr:   true, irr: true, router: true,
		warm:      60,
		group:     100,
		decodedMB: 8,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

// request is the POST /query body, and the unit of the query sequence.
type request struct {
	Topics   []int  `json:"topics"`
	K        int    `json:"k"`
	Strategy string `json:"strategy"`
}

// key identifies a request for answer lookup: two requests with equal keys
// must get byte-identical seeds and marginals.
func (r request) key() string {
	var b strings.Builder
	b.WriteString(r.Strategy)
	b.WriteString("/")
	b.WriteString(strconv.Itoa(r.K))
	for _, t := range r.Topics {
		b.WriteString("/")
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
}

// generator yields the query sequence of one workload and seed.
type generator struct {
	w        *workload
	seed     uint64
	universe []int // sorted keyword IDs the deployment serves
}

func newGenerator(w *workload, seed uint64, universe []int) (*generator, error) {
	need := max(queryLen, w.hot, w.window)
	if len(universe) < need {
		return nil, fmt.Errorf("%s: keyword universe has %d keywords, the workload needs %d", w.name, len(universe), need)
	}
	u := append([]int(nil), universe...)
	sort.Ints(u)
	return &generator{w: w, seed: seed, universe: u}, nil
}

// strategy is the processing path of query i: RR and IRR alternate on
// deployments that serve both.
func (g *generator) strategy(i int) string {
	if g.w.rr && (!g.w.irr || i%2 == 0) {
		return "rr"
	}
	return "irr"
}

// windowStart is the universe offset of query i's active window.
func (g *generator) windowStart(i int) int {
	if g.w.window == 0 {
		return 0
	}
	return (i / g.w.every) * g.w.step % len(g.universe)
}

// pool returns the keywords query i may draw from, in rank order.
func (g *generator) pool(i int) []int {
	switch {
	case g.w.hot > 0:
		return g.universe[:g.w.hot]
	case g.w.window > 0:
		start := g.windowStart(i)
		out := make([]int, g.w.window)
		for j := range out {
			out[j] = g.universe[(start+j)%len(g.universe)]
		}
		return out
	}
	return g.universe
}

// query returns query i of the sequence.
func (g *generator) query(i int) request {
	r := newRand(g.seed, uint64(i))
	pool := g.pool(i)
	var cum []float64
	if g.w.hot > 0 {
		cum = make([]float64, len(pool))
		s := 0.0
		for j := range pool {
			s += 1 / float64(j+1)
			cum[j] = s
		}
	}
	picked := make(map[int]bool, queryLen)
	topics := make([]int, 0, queryLen)
	for len(topics) < queryLen {
		var j int
		if cum != nil {
			j = sort.SearchFloat64s(cum, r.float()*cum[len(cum)-1])
			j = min(j, len(pool)-1)
		} else {
			j = r.intn(len(pool))
		}
		if !picked[j] {
			picked[j] = true
			topics = append(topics, pool[j])
		}
	}
	sort.Ints(topics)
	return request{Topics: topics, K: queryK, Strategy: g.strategy(i)}
}

// warmup returns the requests sent before the timed window. hot-mix sends
// every keyword set of its hot space under every strategy once, so the
// timed window finds each artifact it needs already decoded; the other
// workloads send the first warm queries of the sequence.
func (g *generator) warmup() []request {
	if g.w.hot == 0 {
		out := make([]request, g.w.warm)
		for i := range out {
			out[i] = g.query(i)
		}
		return out
	}
	var out []request
	hot := g.universe[:g.w.hot]
	for mask := 1; mask < 1<<len(hot); mask++ {
		var topics []int
		for j, t := range hot {
			if mask&(1<<j) != 0 {
				topics = append(topics, t)
			}
		}
		if len(topics) != queryLen {
			continue
		}
		if g.w.rr {
			out = append(out, request{Topics: topics, K: queryK, Strategy: "rr"})
		}
		if g.w.irr {
			out = append(out, request{Topics: topics, K: queryK, Strategy: "irr"})
		}
	}
	return out
}

// timedStart is the index of the first query of the timed window.
func (g *generator) timedStart() int {
	if g.w.hot > 0 {
		return 0
	}
	return g.w.warm
}

// rand is splitmix64: small, fast and stable across Go releases, so a seed
// names the same query sequence forever.
type rand struct{ s uint64 }

func newRand(seed, i uint64) *rand {
	r := &rand{s: seed}
	r.s = r.next() ^ i
	return r
}

func (r *rand) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rand) intn(n int) int { return int(r.next() % uint64(n)) }
