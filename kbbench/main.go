// Command kbbench is the repository's serving benchmark. It builds a
// dataset and indexes with kbtim-gen and kbtim-build, starts kbtim-serve
// processes, drives them over loopback HTTP with a closed loop of streaming
// queries, checks every reply against reference answers computed through the
// public kbtim API, and prints the metrics BENCHMARK.json names.
//
// Run it from the repository root through the wrapper, which builds the
// binaries first:
//
//	bash kbbench/run.sh --workload hot-mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds an in-process
// traced replay of the same query sequence and reports the per-layer
// metrics. --workload all runs every workload in turn.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// minSeconds is the shortest timed window the benchmark accepts.
const minSeconds = 3

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "workload seed: fixes the query sequence")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run as well")
	)
	flag.Parse()
	if *seconds < minSeconds {
		fmt.Fprintf(os.Stderr, "kbbench: --seconds %d: qps is a median over whole seconds, want at least %d\n", *seconds, minSeconds)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures the named workloads from the checkout root, the working
// directory, where run.sh has built the binaries into .bench_build/bin.
func run(ctx context.Context, name string, seed uint64, d time.Duration, traced bool) (*result, error) {
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	ws := workloads
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		ws = []*workload{w}
	}
	t := newTools(filepath.Join(".bench_build", "bin"))
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	info := runInfo(seed, d, traced)
	out := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		m, err := runWorkload(ctx, t, w, seed, d, traced, filepath.Join(work, w.name))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		info["workload"] = w.name
		ib, _ := json.Marshal(info)
		fmt.Printf("run %s\n", ib)
		for _, f := range m.failures {
			fmt.Println("  FAILED", f)
		}
		vals, err := m.report(spec, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out.Correct = out.Correct && m.correct
		out.Attempted += m.attempted
		out.Failed += m.failed
		for k, v := range vals {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			out.Metrics[k] = v
		}
	}
	return out, nil
}

// runInfo records what a run measured: the source revision, the machine
// and the workload seed. A checkout without git metadata, such as an
// exported tree, is identified by a digest of its Go sources instead.
func runInfo(seed uint64, d time.Duration, traced bool) map[string]any {
	info := map[string]any{
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"client_gomaxprocs": 1,
		"go_version":        runtime.Version(),
		"seed":              seed,
		"seconds":           d.Seconds(),
		"trace":             traced,
	}
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			info["git_rev"] = strings.TrimSpace(string(b))
			return info
		}
	}
	info["src_sha256"] = sourceHash()
	return info
}

// sourceHash digests the checkout's Go sources.
func sourceHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s %d\n", p, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// measured is one workload run's metrics, before they are matched against
// BENCHMARK.json.
type measured struct {
	correct           bool
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	notes             []string
}

// report prints every metric of the run with its unit and returns the ones
// the result line carries: the end-to-end metrics, or with traced the
// per-layer ones. A metric BENCHMARK.json lists that the run did not
// measure, or the reverse, is an error.
func (m *measured) report(spec benchSpec, traced bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	check := func(list []metricSpec, vals map[string]float64, keep bool) error {
		names := map[string]bool{}
		for _, s := range list {
			v, ok := vals[s.Name]
			if !ok {
				return fmt.Errorf("BENCHMARK.json metric %s was not measured", s.Name)
			}
			names[s.Name] = true
			fmt.Printf("  %-34s %14.4f %s\n", s.Name, v, s.Unit)
			if keep {
				out[s.Name] = metricValue{Value: v, Unit: s.Unit}
			}
		}
		for n := range vals {
			if !names[n] {
				return fmt.Errorf("metric %s is missing from BENCHMARK.json", n)
			}
		}
		return nil
	}
	if err := check(spec.EndToEnd, m.e2e, !traced); err != nil {
		return nil, err
	}
	if traced {
		if err := check(spec.PerLayer, m.layer, true); err != nil {
			return nil, err
		}
	}
	for _, n := range m.notes {
		fmt.Println("  note:", n)
	}
	return out, nil
}

// setupReps is how many times a run sets its deployment up; setup_s is the
// median.
const setupReps = 3

// maxReplay bounds the traced run's queries.
const maxReplay = 300

func runWorkload(ctx context.Context, t *tools, w *workload, seed uint64, d time.Duration, traced bool, work string) (*measured, error) {
	var setups []time.Duration
	var c *cluster
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup-%d", i))
		cl, took, err := setUp(ctx, t, w, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if i == setupReps-1 {
			c = cl
			break
		}
		if err := cl.stop(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	m, err := measure(ctx, c, w, seed, d, traced)
	if serr := c.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	m.e2e["setup_s"] = pct(setups, 0.5).Seconds()
	return m, nil
}

// snapshot is every server's /stats and /proc state at one instant.
type snapshot struct {
	stats []*serverStats
	procs []procSample
}

func takeSnapshot(c *cluster) (*snapshot, error) {
	s := &snapshot{}
	for _, sv := range c.servers {
		st, err := fetchStats(sv.url)
		if err != nil {
			return nil, err
		}
		ps, err := sampleProc(sv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		s.stats = append(s.stats, st)
		s.procs = append(s.procs, ps)
	}
	return s, nil
}

func measure(ctx context.Context, c *cluster, w *workload, seed uint64, d time.Duration, traced bool) (*measured, error) {
	url := c.front().url
	universe, err := fetchKeywords(url)
	if err != nil {
		return nil, err
	}
	gen, err := newGenerator(w, seed, universe)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	warm := gen.warmup()
	for _, rec := range sendAll(hc, url, warm) {
		if rec.fail != "" {
			return nil, fmt.Errorf("warm-up query %s failed: %s", rec.req.key(), rec.fail)
		}
	}
	before, err := takeSnapshot(c)
	if err != nil {
		return nil, err
	}
	// Two closed-loop clients need one P; a second would only let the
	// benchmark's own scheduler and GC take CPU from the servers it times.
	prev := runtime.GOMAXPROCS(1)
	recs, window := sendFor(hc, url, gen, gen.timedStart(), d)
	runtime.GOMAXPROCS(prev)
	after, err := takeSnapshot(c)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(recs) < 100 {
		return nil, fmt.Errorf("only %d queries in the timed window; p90 needs at least 100", len(recs))
	}

	// Reference answers, outside set-up and the timed window.
	answers, ws, err := referenceAnswers(c, w, recs)
	if err != nil {
		return nil, err
	}
	m := &measured{correct: true, attempted: len(recs), e2e: map[string]float64{}, layer: map[string]float64{}}
	m.failed = grade(recs, answers)
	for _, rec := range recs {
		if rec.fail != "" && len(m.failures) < 10 {
			m.failures = append(m.failures, fmt.Sprintf("query %d %s: %s", rec.idx, rec.req.key(), rec.fail))
		}
	}
	if err := theorem3(answers, distinct(recs, w, true)); err != nil {
		m.correct = false
		m.failures = append(m.failures, err.Error())
	}
	if m.failed > 0 {
		m.correct = false
	}

	delta := diffStats(before, after)
	if err := checkPremise(w, recs, delta, ws, after.stats[0]); err != nil {
		return nil, fmt.Errorf("workload premise not met, refusing to report: %w", err)
	}
	m.endToEnd(recs, window, after)
	m.layers(w, recs, delta, ws)

	if traced {
		if err := m.traced(ctx, c, w, warm, recs, answers, after.stats[0]); err != nil {
			return nil, err
		}
	}
	return m, nil
}
