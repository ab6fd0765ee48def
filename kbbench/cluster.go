package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running kbtim-serve process.
type server struct {
	role string // "node", "backend" or "router"
	url  string
	cmd  *exec.Cmd
	log  string
	done chan error // receives cmd.Wait's result once
}

// cluster is one workload's deployment: the files it was built from and
// the serving processes, front first.
type cluster struct {
	dir      string
	graph    string
	profiles string
	rr, irr  string // index paths (shard base paths on router-span)
	servers  []*server
}

func (c *cluster) front() *server { return c.servers[0] }

// tools locates the binaries the benchmark drives.
type tools struct {
	gen, build, serve string
}

func newTools(bin string) *tools {
	return &tools{
		gen:   filepath.Join(bin, "kbtim-gen"),
		build: filepath.Join(bin, "kbtim-build"),
		serve: filepath.Join(bin, "kbtim-serve"),
	}
}

func runTool(ctx context.Context, bin string, args ...string) error {
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// setUp generates the dataset, builds the workload's indexes and starts its
// servers in dir, returning once every server answers /healthz. The
// returned duration is setup_s: from the start of kbtim-gen until then.
func setUp(ctx context.Context, t *tools, w *workload, dir string) (*cluster, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	c := &cluster{
		dir:      dir,
		graph:    filepath.Join(dir, "graph.bin"),
		profiles: filepath.Join(dir, "profiles.bin"),
	}
	start := time.Now()
	d := dataSpec
	if err := runTool(ctx, t.gen, "-kind", d.kind, "-users", strconv.Itoa(d.users),
		"-degree", strconv.FormatFloat(d.degree, 'g', -1, 64), "-topics", strconv.Itoa(d.topics),
		"-seed", strconv.Itoa(d.dataSeed), "-graph", c.graph, "-profiles", c.profiles); err != nil {
		return nil, 0, err
	}
	shards := 1
	if w.router {
		shards = routerBackends
	}
	ident := []string{"-epsilon", strconv.FormatFloat(d.epsilon, 'g', -1, 64), "-K", strconv.Itoa(d.bigK),
		"-max-theta", strconv.Itoa(d.maxTheta), "-seed", strconv.Itoa(d.dataSeed)}
	build := func(kind string) (string, error) {
		out := filepath.Join(dir, "ads."+kind)
		args := append([]string{"-graph", c.graph, "-profiles", c.profiles, "-out", out,
			"-type", kind, "-delta", strconv.Itoa(d.delta), "-shards", strconv.Itoa(shards)}, ident...)
		return out, runTool(ctx, t.build, args...)
	}
	var err error
	if w.rr {
		if c.rr, err = build("rr"); err != nil {
			return nil, 0, err
		}
	}
	if w.irr {
		if c.irr, err = build("irr"); err != nil {
			return nil, 0, err
		}
	}

	node := func(role, rr, irr string) error {
		args := []string{"-graph", c.graph, "-profiles", c.profiles}
		if rr != "" {
			args = append(args, "-rr", rr)
		}
		if irr != "" {
			args = append(args, "-irr", irr)
		}
		if role == "node" {
			args = append(args, w.cacheFlags()...)
		}
		return c.start(ctx, t, role, append(args, ident...))
	}
	if !w.router {
		if err := node("node", c.rr, c.irr); err != nil {
			c.stop()
			return nil, 0, err
		}
	} else {
		var backends []string
		for i := 0; i < routerBackends; i++ {
			rr, irr := "", ""
			if c.rr != "" {
				rr = fmt.Sprintf("%s.s%d", c.rr, i)
			}
			if c.irr != "" {
				irr = fmt.Sprintf("%s.s%d", c.irr, i)
			}
			if err := node("backend", rr, irr); err != nil {
				c.stop()
				return nil, 0, err
			}
			backends = append(backends, c.servers[len(c.servers)-1].url)
		}
		args := append([]string{"-router", "-backends", strings.Join(backends, ",")}, w.cacheFlags()...)
		if err := c.start(ctx, t, "router", args); err != nil {
			c.stop()
			return nil, 0, err
		}
		// The router fronts the deployment.
		n := len(c.servers)
		c.servers = append([]*server{c.servers[n-1]}, c.servers[:n-1]...)
	}
	return c, time.Since(start), nil
}

// cacheFlags returns the front server's cache-budget flags; every other
// tuning flag stays at its default.
func (w *workload) cacheFlags() []string {
	var out []string
	if w.decodedMB > 0 {
		out = append(out, "-decoded-cache-mb", strconv.Itoa(w.decodedMB))
	}
	if w.byteMB > 0 {
		out = append(out, "-cache-mb", strconv.Itoa(w.byteMB))
	}
	return out
}

// start launches one kbtim-serve and waits until it answers /healthz.
func (c *cluster) start(ctx context.Context, t *tools, role string, args []string) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	s := &server{role: role, url: "http://" + addr, done: make(chan error, 1),
		log: filepath.Join(c.dir, fmt.Sprintf("%s-%d.log", role, len(c.servers)))}
	lf, err := os.Create(s.log)
	if err != nil {
		return err
	}
	defer lf.Close()
	s.cmd = exec.Command(t.serve, append(args, "-addr", addr)...)
	s.cmd.Stdout, s.cmd.Stderr = lf, lf
	// A benchmark killed mid-run must not leave servers behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return err
	}
	c.servers = append(c.servers, s)
	go func() { s.done <- s.cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("%s exited during start-up (%v): %s", role, err, tail(s.log))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := ctl.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 30s: %s", role, tail(s.log))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM to every server, front first, and waits for each. Every
// server must drain and exit 0.
func (c *cluster) stop() error {
	var errs []error
	for _, s := range c.servers {
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			errs = append(errs, fmt.Errorf("%s: SIGTERM: %w", s.role, err))
		}
		select {
		case err := <-s.done:
			s.done <- err
			if err != nil {
				errs = append(errs, fmt.Errorf("%s did not exit 0 on SIGTERM (%v): %s", s.role, err, tail(s.log)))
			}
		case <-time.After(20 * time.Second):
			s.cmd.Process.Kill()
			s.done <- <-s.done
			errs = append(errs, fmt.Errorf("%s did not exit within 20s of SIGTERM", s.role))
		}
	}
	c.servers = nil
	return errors.Join(errs...)
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 800 {
		b = b[len(b)-800:]
	}
	return strings.TrimSpace(string(b))
}

// procSample is a /proc snapshot of one server process.
type procSample struct {
	cpu   time.Duration // user+system CPU time so far
	hwmKB int64         // peak resident set (VmHWM)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux ABI Go supports).
const clockTick = 100

func sampleProc(pid int) (procSample, error) {
	var ps procSample
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, err
	}
	ps.cpu = time.Duration(ut+st) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb := strings.Fields(rest)
			if len(kb) > 0 {
				ps.hwmKB, err = strconv.ParseInt(kb[0], 10, 64)
			}
			return ps, err
		}
	}
	return ps, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// Wire shapes of the /stats fields the benchmark reads.
type decodedStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Shared      int64 `json:"shared"`
	Entries     int64 `json:"entries"`
	BudgetBytes int64 `json:"budget_bytes"`
}

type byteCacheStats struct {
	BudgetBytes int64 `json:"budget_bytes"`
}

type serverStats struct {
	Failed     int64          `json:"failed"`
	Rejected   int64          `json:"rejected"`
	Canceled   int64          `json:"canceled"`
	RRCache    byteCacheStats `json:"rr_cache"`
	IRRCache   byteCacheStats `json:"irr_cache"`
	RRDecoded  decodedStats   `json:"rr_decoded_cache"`
	IRRDecoded decodedStats   `json:"irr_decoded_cache"`
	Router     *struct {
		Proxied       int64 `json:"proxied"`
		Scattered     int64 `json:"scattered"`
		Retries       int64 `json:"retries"`
		Failovers     int64 `json:"failovers"`
		FetchRequests int64 `json:"fetch_requests"`
		BatchedUnits  int64 `json:"batched_units"`
		Backends      []struct {
			WireBytes int64 `json:"wire_bytes"`
		} `json:"backends"`
	} `json:"router"`
}

func fetchStats(url string) (*serverStats, error) {
	resp, err := ctl.Get(url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/stats: %s", url, resp.Status)
	}
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET %s/stats: %w", url, err)
	}
	return &st, nil
}

func fetchKeywords(url string) ([]int, error) {
	resp, err := ctl.Get(url + "/keywords")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var kw struct {
		Topics []int `json:"topics"`
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/keywords: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&kw); err != nil {
		return nil, fmt.Errorf("GET %s/keywords: %w", url, err)
	}
	return kw.Topics, nil
}
