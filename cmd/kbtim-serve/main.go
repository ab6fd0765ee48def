// Command kbtim-serve runs a KB-TIM query server over HTTP/JSON, or drives
// one with closed-loop load.
//
// Serve mode binds one or more Engines (with their cache tiers) to an
// address and answers concurrent queries through a bounded worker pool:
//
//	kbtim-serve -graph g.bin -profiles p.bin -irr ads.irr \
//	            -addr :8080 -workers 8 -cache-mb 64
//
// With -shards N > 1 the server runs N engine shards on one box. In hash
// (default) and range modes each shard serves a disjoint keyword subset
// from its own index file ("<path>.s<i>", written by kbtim-build -shards);
// queries whose topics co-locate are answered by that shard alone, and
// spanning queries are scatter-gathered with an exact merge — results are
// identical to a single-engine deployment. In replicate mode every shard
// opens the SAME full index file and whole queries round-robin across
// replicas. The global -cache-mb/-decoded-cache-mb budgets and the -workers
// pool are split evenly across shards:
//
//	kbtim-serve -graph g.bin -profiles p.bin -irr ads.irr \
//	            -shards 4 -shard-mode hash -workers 8 -decoded-cache-mb 256
//
// Router mode scales the same contract across PROCESSES: a fan-out router
// in front of N replica GROUPS of kbtim-serve nodes, every replica of group
// i serving shard i's index files (comma separates shards, | separates
// replicas of one shard). Queries whose topics co-locate on one group are
// proxied whole to a healthy replica of it; spanning queries run the exact
// scatter-gather merge locally with every keyword's artifact fetch going to
// its owning group over the batched /internal/artifacts protocol (results
// stay bit-identical to one engine — see DESIGN.md §6.2). Per-replica
// circuit breakers feed on both passive traffic outcomes and the /healthz
// probe loop; failed proxies and artifact fetches retry on a surviving
// replica, and a backend that is down at startup joins the rotation when it
// comes back (see DESIGN.md §6.3). The -decoded-cache-mb budget becomes the
// router-side artifact cache, split across shards:
//
//	kbtim-serve -router -backends 'h1:8080|h1b:8080,h2:8080|h2b:8080' \
//	            -shard-mode hash -addr :9090 -decoded-cache-mb 256
//
// Endpoints:
//
//	POST /query    {"topics":[2,7],"k":10,"strategy":"irr"} → seeds + stats;
//	               optional "deadline_ms" makes the query anytime (best
//	               certified prefix + partial=true at the deadline), and
//	               ?stream=1 switches the reply to NDJSON: one record per
//	               certified seed as it is found, then a terminal record
//	               with the batch payload and "done":true
//	GET  /keywords queryable topic IDs (union across shards)
//	GET  /stats    pool, latency, and cache counters (+ per-shard and
//	               per-backend router sections)
//	GET  /healthz  liveness (a router is healthy while every shard keeps
//	               >= 1 healthy replica)
//	POST /internal/artifacts raw index artifacts for routers, one batch
//	               of named units per request (serve mode)
//
// The server shuts down gracefully: SIGINT/SIGTERM stops accepting new
// connections and drains in-flight queries (up to -drain), then exits 0.
//
// Drive mode is a closed-loop load generator against a running server
// (each client keeps exactly one query outstanding):
//
//	kbtim-serve -drive -target http://localhost:8080 \
//	            -clients 16 -duration 30s -k 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"kbtim"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("kbtim-serve: %v", err)
	}
}

// run is main minus the exit: every failure returns an error (so tests can
// exercise the full lifecycle) and a clean shutdown returns nil.
func run(args []string) error {
	fs := flag.NewFlagSet("kbtim-serve", flag.ContinueOnError)
	var (
		// Serve mode.
		addr        = fs.String("addr", ":8080", "listen address (serve mode)")
		graphPath   = fs.String("graph", "graph.bin", "input graph path")
		profilePath = fs.String("profiles", "profiles.bin", "input profiles path")
		rrPath      = fs.String("rr", "", "RR index path (optional; with -shards > 1, shard i opens <path>.s<i>)")
		irrPath     = fs.String("irr", "", "IRR index path (optional; with -shards > 1, shard i opens <path>.s<i>)")
		workers     = fs.Int("workers", 0, "query worker pool size, split across shards (0 = NumCPU)")
		shards      = fs.Int("shards", 1, "engine shard count on this box")
		shardMode   = fs.String("shard-mode", "hash", "keyword→shard assignment: hash | range | replicate")
		cacheMB     = fs.Int("cache-mb", 32, "segment (byte) cache budget per index, MiB, split across shards (0 = no cache)")
		decodedMB   = fs.Int("decoded-cache-mb", 64, "decoded-object cache budget per index, MiB, split across shards (0 = no cache)")
		cacheShards = fs.Int("cache-shards", 0, "decoded-object cache shards per engine, rounded to a power of two (0 = near GOMAXPROCS)")
		queryPar    = fs.Int("query-parallelism", 2, "per-query artifact-load parallelism (<=1 = sequential)")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight queries")
		routerMode  = fs.Bool("router", false, "run as a cross-node fan-out router over -backends (no local indexes)")
		backends    = fs.String("backends", "", "backend base URLs: comma-separated shards, |-separated replicas of a shard (\"h1|h1b,h2|h2b\"); group i owns shard i's keywords (router mode)")
		proxyTO     = fs.Duration("proxy-timeout", 30*time.Second, "per-call deadline for router→backend opens and proxied queries (router mode)")
		healthTTL   = fs.Duration("health-ttl", 2*time.Second, "how long a backend /healthz verdict is cached before re-probing (router mode)")
		probeTO     = fs.Duration("probe-timeout", 2*time.Second, "per-probe deadline for backend /healthz round trips (router mode)")
		maxIdle     = fs.Int("max-idle-conns", 0, "idle keep-alive connections kept per backend host (0 = default 32; router mode)")
		deadlineDef = fs.Duration("deadline", 0, "default anytime deadline per query: past it the reply is the best certified seed prefix, partial=true (0 = none; per-request deadline_ms overrides)")
		model       = fs.String("model", "IC", "propagation model: IC | LT")
		epsilon     = fs.Float64("epsilon", 0.3, "approximation ε")
		bigK        = fs.Int("K", 100, "system cap on Q.k")
		maxTheta    = fs.Int("max-theta", 0, "per-keyword sampling cap (0 = none)")
		seed        = fs.Uint64("seed", 1, "RNG seed")

		// Drive mode.
		driveMode = fs.Bool("drive", false, "run the closed-loop load driver instead of serving")
		target    = fs.String("target", "http://localhost:8080", "server base URL (drive mode)")
		clients   = fs.Int("clients", 8, "closed-loop client count (drive mode)")
		duration  = fs.Duration("duration", 10*time.Second, "load duration (drive mode)")
		k         = fs.Int("k", 10, "seed budget Q.k per generated query (drive mode)")
		maxLen    = fs.Int("max-keywords", 3, "max keywords per generated query (drive mode)")
		strategy  = fs.String("strategy", "irr", "strategy for generated queries: rr | irr (drive mode)")
		zipf      = fs.Float64("zipf", 0, "keyword popularity skew exponent, 0 = uniform (drive mode)")
		churn     = fs.Duration("churn", 0, "rotate the active keyword window this often, 0 = whole universe (drive mode)")
		stream    = fs.Bool("stream", false, "drive /query?stream=1 and report time-to-first-seed (drive mode)")
		dlMS      = fs.Int64("deadline-ms", 0, "anytime deadline_ms attached to every generated query, 0 = none (drive mode)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed usage; that is a clean exit, not a failure
		}
		return err
	}

	if *driveMode {
		rep, err := drive(driveConfig{
			Target:     *target,
			Clients:    *clients,
			Duration:   *duration,
			K:          *k,
			MaxLen:     *maxLen,
			Strategy:   *strategy,
			Seed:       *seed,
			Zipf:       *zipf,
			Churn:      *churn,
			Stream:     *stream,
			DeadlineMS: *dlMS,
		})
		if err != nil {
			return err
		}
		rep.print()
		return nil
	}

	pool := *workers
	if pool <= 0 {
		pool = runtime.NumCPU()
	}
	var be backend
	if *routerMode {
		groups := splitBackends(*backends)
		cfg := defaultFanoutConfig()
		cfg.mode = kbtim.ShardMode(*shardMode)
		cfg.decBudget = (int64(*decodedMB) << 20) / int64(max(len(groups), 1))
		cfg.cacheShards = *cacheShards
		cfg.queryPar = *queryPar
		cfg.proxyTimeout = *proxyTO
		cfg.healthTTL = *healthTTL
		cfg.probeTimeout = *probeTO
		cfg.maxIdleConns = *maxIdle
		fo, err := openFanout(groups, cfg)
		if err != nil {
			return err
		}
		defer fo.Close()
		be = fo
		nreps := 0
		for _, g := range groups {
			nreps += len(g)
		}
		fmt.Printf("kbtim-serve: routing on %s over %d shards / %d replicas [%s], %d workers, %d MiB decoded artifact cache split across shards\n",
			*addr, len(groups), nreps, *shardMode, pool, *decodedMB)
	} else {
		if *rrPath == "" && *irrPath == "" {
			return errors.New("serve mode needs -rr and/or -irr (or use -drive / -router)")
		}
		if *shards < 1 {
			return fmt.Errorf("-shards must be >= 1, got %d", *shards)
		}
		ds, err := kbtim.LoadDataset(*graphPath, *profilePath)
		if err != nil {
			return err
		}
		// The cache flags are GLOBAL budgets; each shard engine gets an even
		// split so adding shards redistributes memory instead of multiplying it.
		opts := kbtim.Options{
			Epsilon:            *epsilon,
			K:                  *bigK,
			Model:              kbtim.Model(*model),
			MaxThetaPerKeyword: *maxTheta,
			Seed:               *seed,
			CacheBytes:         (int64(*cacheMB) << 20) / int64(*shards),
			DecodedCacheBytes:  (int64(*decodedMB) << 20) / int64(*shards),
			CacheShards:        *cacheShards,
			QueryParallelism:   *queryPar,
		}
		perShard := pool / *shards
		if perShard < 1 {
			perShard = 1
		}
		var closeBackend func() error
		be, closeBackend, err = openBackend(ds, opts, *rrPath, *irrPath, *shards, kbtim.ShardMode(*shardMode), perShard)
		if err != nil {
			return err
		}
		defer closeBackend()
		fmt.Printf("kbtim-serve: listening on %s (%d shards [%s], %d workers [%d/shard], %d MiB byte cache + %d MiB decoded cache per index, split across shards)\n",
			*addr, *shards, *shardMode, pool, perShard, *cacheMB, *decodedMB)
	}

	srv := NewServer(be, pool)
	srv.SetDefaultDeadline(*deadlineDef)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow or stalled clients must not pin connections forever; the
		// write timeout bounds queue wait + query time, so keep it well
		// above typical query latency.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Serve until a listener failure or a shutdown signal. SIGINT/SIGTERM
	// triggers a graceful drain: the listener closes immediately (new
	// connections are refused), in-flight queries get up to -drain to
	// finish and write their responses, and the intended close path
	// (http.ErrServerClosed) exits 0 instead of tripping the fatal path.
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case sig := <-sigCh:
		fmt.Printf("kbtim-serve: %v received, draining in-flight queries (up to %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Println("kbtim-serve: drained, bye")
		return nil
	}
}
