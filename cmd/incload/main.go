// Command incload load-tests the solve service in-process: it drives a
// mixed traffic profile (identical resubmits, distinct problems,
// detached jobs, session commits) at a configurable concurrency against
// a serve handler and writes per-class latency percentiles plus the
// solution-cache hit rate as a machine-readable artifact.
//
// Usage:
//
//	incload [-profile smoke|mixed|resubmit|cluster] [-requests N] [-concurrency N]
//	        [-seed S] [-strategy mh] [-solution-cache N] [-no-cache]
//	        [-target URL,URL,...]
//	        [-out LOAD_smoke.json] [-max-p99 MS] [-min-hit-rate R]
//	        [-metrics-lint] [-slow-request-log D]
//
// It runs the profile and optionally gates on absolute thresholds:
// -max-p99 fails the run when any class's p99 exceeds the bound,
// -min-hit-rate when the cache hit rate falls below it (CI's
// load-smoke job uses both). Comparing runs of two commits is the
// benchmark's job (benchmark/, `-compare`), not this tool's.
//
// With -target the profile drives running incmapd daemons over real
// HTTP instead of an in-process server: solve traffic round-robins
// across the listed base URLs (session traffic stays on the first, so
// commits land where their session lives), and measured latencies
// include the network. Pointing a single -target at a cluster
// coordinator fills the report's per-worker rows from the responses'
// X-Incdes-Worker attribution — the cluster profile is shaped for
// exactly that (cache-miss-heavy, so most requests dispatch).
//
// Exit status: 0 on success, 1 on a failed gate, 2 on usage or I/O
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"incdes/internal/load"
	"incdes/internal/obs"
	"incdes/internal/obs/promtext"
	"incdes/internal/serve"
)

func main() {
	profileName := flag.String("profile", "smoke", "named profile: smoke, mixed, resubmit or cluster")
	requests := flag.Int("requests", 0, "total requests (0 = profile default)")
	concurrency := flag.Int("concurrency", 0, "concurrent clients (0 = profile default)")
	seed := flag.Int64("seed", 0, "workload seed (0 = profile default)")
	strategy := flag.String("strategy", "", "solve strategy query parameter (default mh)")
	cacheSize := flag.Int("solution-cache", 256, "server-side solution-cache entries (0 = off)")
	noCache := flag.Bool("no-cache", false, "send cache=off on every request (baseline mode)")
	out := flag.String("out", "", "write the report JSON to this file (atomic)")
	maxP99 := flag.Float64("max-p99", 0, "fail when any class p99 exceeds this many ms (0 = no gate)")
	minHitRate := flag.Float64("min-hit-rate", 0, "fail when the cache hit rate is below this fraction (0 = no gate)")
	metricsLint := flag.Bool("metrics-lint", false, "after the run, scrape /v1/metrics and fail on exposition-format problems")
	slowRequestLog := flag.Duration("slow-request-log", 0, "log a one-line span breakdown of requests at least this slow (0 = off)")
	target := flag.String("target", "", "comma-separated base URLs of running incmapd daemons (empty = in-process server)")
	flag.Parse()

	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "incload: unexpected arguments")
		os.Exit(2)
	}

	p, ok := load.Named(*profileName)
	if !ok {
		fmt.Fprintf(os.Stderr, "incload: unknown profile %q (want smoke, mixed, resubmit or cluster)\n", *profileName)
		os.Exit(2)
	}
	if *requests > 0 {
		p.Requests = *requests
	}
	if *concurrency > 0 {
		p.Concurrency = *concurrency
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *strategy != "" {
		p.Strategy = *strategy
	}
	p.CacheOff = *noCache

	var handler http.Handler
	var lintTarget string
	if *target != "" {
		th, err := newTargetHandler(*target)
		if err != nil {
			fmt.Fprintln(os.Stderr, "incload:", err)
			os.Exit(2)
		}
		handler = th
		lintTarget = th.targets[0]
	} else {
		srv := serve.New(serve.Config{
			MaxConcurrent:     p.Concurrency,
			QueueDepth:        p.Requests + 8,
			Parallelism:       1,
			RetainJobs:        p.Requests + 8,
			SolutionCacheSize: *cacheSize,
			SlowRequestLog:    *slowRequestLog,
		})
		defer srv.Close()
		handler = srv.Handler()
	}
	rep, err := load.Run(handler, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incload:", err)
		os.Exit(2)
	}
	printReport(rep)
	if *out != "" {
		if err := obs.WriteJSONFile(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "incload:", err)
			os.Exit(2)
		}
		fmt.Printf("report written to %s\n", *out)
	}

	failed := false
	if n := rep.Errors(); n > 0 {
		fmt.Printf("FAIL: %d requests errored\n", n)
		failed = true
	}
	if *metricsLint {
		// Scrape the handler that just served the load: the exposition
		// must be well-formed with real per-strategy and histogram series
		// populated, which is exactly when format bugs surface. Against
		// -target that exercises the coordinator's merged multi-worker
		// exposition over real HTTP.
		problems, err := lintMetrics(handler, lintTarget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "incload:", err)
			os.Exit(2)
		}
		for _, p := range problems {
			fmt.Printf("FAIL: metrics-lint: %s\n", p)
		}
		if len(problems) > 0 {
			failed = true
		} else {
			fmt.Println("metrics-lint: clean")
		}
	}
	if *maxP99 > 0 {
		for _, name := range classNames(rep) {
			if c := rep.Classes[name]; c.P99MS > *maxP99 {
				fmt.Printf("FAIL: class %s p99 %.2fms exceeds gate %.2fms\n", name, c.P99MS, *maxP99)
				failed = true
			}
		}
	}
	if *minHitRate > 0 && rep.Cache.HitRate < *minHitRate {
		fmt.Printf("FAIL: cache hit rate %.3f below gate %.3f\n", rep.Cache.HitRate, *minHitRate)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// lintMetrics scrapes /v1/metrics — over real HTTP from the first
// target when one is set, through the in-process handler otherwise —
// and validates the exposition format.
func lintMetrics(h http.Handler, target string) ([]string, error) {
	if target != "" {
		resp, err := http.Get(target + "/v1/metrics")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s/v1/metrics = %d", target, resp.StatusCode)
		}
		return promtext.Lint(resp.Body), nil
	}
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics = %d", rec.Code)
	}
	return promtext.Lint(rec.Body), nil
}

// targetHandler adapts running daemons to the http.Handler the load
// harness drives: requests round-robin across the target base URLs,
// except session traffic, which is pinned to the first target so a
// commit always reaches the daemon holding its session.
type targetHandler struct {
	targets []string
	client  *http.Client
	next    atomic.Int64
}

func newTargetHandler(list string) (*targetHandler, error) {
	th := &targetHandler{client: &http.Client{}}
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSpace(strings.TrimRight(u, "/")); u != "" {
			th.targets = append(th.targets, u)
		}
	}
	if len(th.targets) == 0 {
		return nil, fmt.Errorf("-target: no base URLs in %q", list)
	}
	return th, nil
}

func (th *targetHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	base := th.targets[0]
	if !strings.HasPrefix(r.URL.Path, "/v1/sessions") {
		base = th.targets[int(th.next.Add(1)-1)%len(th.targets)]
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := th.client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func classNames(rep *load.Report) []string {
	names := make([]string, 0, len(rep.Classes))
	for name := range rep.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func printReport(rep *load.Report) {
	fmt.Printf("profile %s: %d requests, concurrency %d, wall %.0fms, cache enabled %v\n",
		rep.Profile.Name, rep.Profile.Requests, rep.Profile.Concurrency, rep.WallMS, rep.CacheEnabled)
	for _, name := range classNames(rep) {
		c := rep.Classes[name]
		fmt.Printf("  %-9s n=%-4d err=%-3d p50=%8.2fms p95=%8.2fms p99=%8.2fms mean=%8.2fms\n",
			name, c.Requests, c.Errors, c.P50MS, c.P95MS, c.P99MS, c.MeanMS)
	}
	if len(rep.Workers) > 0 {
		names := make([]string, 0, len(rep.Workers))
		for name := range rep.Workers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := rep.Workers[name]
			fmt.Printf("  worker %-6s n=%-4d p50=%8.2fms p99=%8.2fms\n",
				name, c.Requests, c.P50MS, c.P99MS)
		}
	}
	if rep.CacheEnabled {
		fmt.Printf("  cache: hit %d, miss %d, inflight %d (hit rate %.1f%%)\n",
			rep.Cache.Hit, rep.Cache.Miss, rep.Cache.Inflight, rep.Cache.HitRate*100)
	}
}
