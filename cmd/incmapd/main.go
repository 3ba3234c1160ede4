// Command incmapd is the long-running solve service: the engine behind
// incmap, exposed over HTTP with live telemetry.
//
// Usage:
//
//	incmapd [-addr :8080] [-max-concurrent N] [-queue N]
//	        [-job-timeout D] [-parallel N] [-retain N] [-pprof]
//	        [-session-dir DIR] [-solution-cache N]
//	        [-debug-requests N] [-slow-request-log D]
//	        [-coordinator -workers URL,URL,...]
//	        [-worker-of URL [-advertise URL]]
//
// Endpoints (the API lives under /v1 only; /metrics, /healthz and
// /readyz answer both bare and under /v1):
//
//	POST   /v1/solve              submit a system JSON; returns the solution document
//	POST   /v1/solve?detach=1     submit and return 202 + job id immediately
//	GET    /v1/solve/{id}         job status / result
//	DELETE /v1/solve/{id}         cancel (the engine keeps the best design so far)
//	GET    /v1/solve/{id}/events  SSE stream: trace events + cost-curve points
//	POST   /v1/sessions           open a versioned design session over a base system
//	GET    /v1/sessions           list sessions
//	GET    /v1/sessions/{id}      version tree + branch heads
//	DELETE /v1/sessions/{id}      delete a session
//	POST   /v1/sessions/{id}/commits   commit an application JSON to a branch
//	POST   /v1/sessions/{id}/branches  create a what-if branch from a version
//	POST   /v1/sessions/{id}/rollback  move a branch head back to an ancestor
//	GET    /v1/sessions/{id}/diff      placement + metric delta between versions
//	GET    /v1/stats              the aggregate instrument snapshot as JSON
//	GET    /v1/debug/requests       recent request span trees (filters: status=, min-duration=, n=)
//	GET    /v1/debug/requests/{id}  one request's span tree by correlation ID
//	GET    /metrics               Prometheus text exposition format
//	GET    /healthz, /readyz      liveness / readiness probes
//	GET    /debug/pprof/          profiling (only with -pprof)
//
// Query parameters of /v1/solve: strategy=ah|mh|sa|portfolio, app=<name>,
// sa-iters, sa-restarts (at most 64), seed, parallel, timeout (Go
// duration), cache=off.
// /v1/sessions/{id}/commits accepts the same solve knobs plus branch=.
//
// With -solution-cache N the server keeps up to N one-shot solve results
// keyed by the posted bytes, app= and strategy tuning, in one table with
// the solves in flight: a byte-identical resubmission joins the kept
// result without decoding its body (X-Incdes-Cache: hit) and identical
// concurrent requests coalesce onto one solve (single-flight; followers
// get X-Incdes-Cache: inflight). A body encoding the same system
// differently misses. Only the request that leads a solve takes a queue
// position. cache=off opts a request out. Session commits always solve;
// on a commit, cache=off changes nothing.
//
// With -session-dir sessions persist in that directory and survive
// restarts: <id>.json holds a session's document and <id>.journal one
// JSON line per commit, branch and rollback since, folded into the
// document when the session is next loaded (schedules are
// rematerialized by deterministic replay). Without it sessions are held
// in memory only.
//
// Cluster mode. With -coordinator the daemon shards solves across the
// worker daemons listed in -workers (and any that self-register at POST
// /v1/cluster/workers): SA restart chains, portfolio lanes and whole
// jobs run remotely, each as a POST /v1/solve to its worker, and reduce
// deterministically, so the answer is byte-identical at any cluster
// size. /v1/metrics then merges each worker's /v1/stats under
// per-worker labels. Any incmapd can be a worker; with -worker-of URL
// the daemon also keeps itself registered with the coordinator at URL,
// advertising -advertise (default http://localhost<addr>).
//
// SIGINT/SIGTERM drain the server: readiness flips to 503, in-flight
// solves are cancelled (returning best-so-far designs) and the listener
// shuts down gracefully.
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
	"strings"
	"syscall"
	"time"

	"incdes/internal/cluster"
	"incdes/internal/serve"
	"incdes/internal/session"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "solves running at once (0 = one per CPU)")
	queue := flag.Int("queue", 16, "solves allowed to wait for a slot before 429")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-solve wall-clock cap (0 = none)")
	parallel := flag.Int("parallel", 0, "evaluation workers per solve (0 = one per CPU)")
	retain := flag.Int("retain", 64, "finished jobs kept queryable")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	sessionDir := flag.String("session-dir", "", "directory for persistent design sessions (empty = in-memory only)")
	solutionCache := flag.Int("solution-cache", 0, "one-shot solve results kept, least recently joined evicted first; identical requests coalesce and replay (0 = off)")
	debugRequests := flag.Int("debug-requests", 0, "completed request span trees retained for /v1/debug/requests (0 = default 256, negative = off)")
	slowRequestLog := flag.Duration("slow-request-log", 0, "log a one-line span breakdown of requests at least this slow (0 = off)")
	coordinator := flag.Bool("coordinator", false, "shard solves across the cluster workers in -workers")
	workers := flag.String("workers", "", "comma-separated worker base URLs for -coordinator")
	workerOf := flag.String("worker-of", "", "coordinator base URL to keep this daemon registered with as a cluster worker")
	advertise := flag.String("advertise", "", "base URL this worker registers with its coordinator (default http://localhost<addr>)")
	flag.Parse()

	if *coordinator && *workerOf != "" {
		log.Fatal("incmapd: -coordinator and -worker-of are mutually exclusive")
	}

	var store session.Store
	if *sessionDir != "" {
		ds, err := session.NewDiskStore(*sessionDir)
		if err != nil {
			log.Fatalf("incmapd: %v", err)
		}
		store = ds
	}
	cfg := serve.Config{
		MaxConcurrent:     *maxConcurrent,
		QueueDepth:        *queue,
		JobTimeout:        *jobTimeout,
		Parallelism:       *parallel,
		RetainJobs:        *retain,
		EnablePprof:       *pprofOn,
		SessionStore:      store,
		SolutionCacheSize: *solutionCache,
		DebugRequests:     *debugRequests,
		SlowRequestLog:    *slowRequestLog,
	}

	var coord *cluster.Coordinator
	var urls []string
	if *coordinator {
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(strings.TrimRight(u, "/")); u != "" {
				urls = append(urls, u)
			}
		}
		coord = cluster.NewCoordinator(cluster.Options{Workers: urls})
		cfg.Dispatcher = coord
		cfg.MetricsExtra = coord.MetricsExtra
	}
	srv := serve.New(cfg)

	handler := srv.Handler()
	if coord != nil {
		handler = coord.Handler(handler)
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerOf != "" {
		self := *advertise
		if self == "" {
			self = "http://localhost" + *addr
		}
		go cluster.RegisterLoop(ctx, strings.TrimRight(*workerOf, "/"), strings.TrimRight(self, "/"))
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	switch {
	case coord != nil:
		log.Printf("incmapd listening on %s (coordinator, %d static workers, job timeout %v)", *addr, len(urls), *jobTimeout)
	case *workerOf != "":
		log.Printf("incmapd listening on %s (worker of %s, job timeout %v)", *addr, *workerOf, *jobTimeout)
	default:
		log.Printf("incmapd listening on %s (pprof %v, job timeout %v)", *addr, *pprofOn, *jobTimeout)
	}

	select {
	case err := <-errc:
		log.Fatalf("incmapd: %v", err)
	case <-ctx.Done():
	}
	log.Print("incmapd: draining")
	if coord != nil {
		coord.Close()
	}
	srv.Close() // cancel running solves; readiness goes 503
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "incmapd: shutdown:", err)
		os.Exit(1)
	}
}
