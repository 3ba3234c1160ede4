// Package load is the concurrent load-test harness behind cmd/incload:
// it drives a mixed traffic profile — identical resubmits, distinct
// problems, detached jobs and session commits — against an in-process
// serve handler at a configurable concurrency and reports per-class
// latency percentiles plus the solution-cache hit rate as a
// machine-readable artifact (LOAD_<profile>.json).
//
// The workload is synthesized deterministically from the profile seed
// with model.Builder systems small enough that a single solve takes
// milliseconds: the harness measures the serving layer (queueing,
// caching, single-flight coalescing), not solver throughput.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/tm"
)

// SchemaVersion identifies the JSON layout of Report. Version 2 added
// the serialized per-class latency histogram (ClassReport.Histogram);
// version 3 added the per-worker latency rows (Report.Workers) populated
// when responses carry the cluster's X-Incdes-Worker attribution.
const SchemaVersion = 3

// latencyBounds are the per-class histogram buckets, in milliseconds:
// 10 per decade from 10µs to 10s. Denser than the serving catalog's
// buckets because the harness derives its gate percentiles from them.
func latencyBounds() []float64 { return obs.LogBounds(0.01, 10, 61) }

// Traffic class names, as they appear in Report.Classes.
const (
	ClassResubmit = "resubmit" // identical one-shot solve, repeated
	ClassDistinct = "distinct" // one-shot solves over a pool of distinct systems
	ClassDetach   = "detach"   // detached jobs (202 latency), then polled to completion
	ClassCommit   = "commit"   // session commits of one application on per-request branches
)

// Mix weights the traffic classes. Requests are assigned to classes
// deterministically by request index (round-robin over the cumulative
// weights), so the same profile always issues the same sequence.
type Mix struct {
	Resubmit int `json:"resubmit"`
	Distinct int `json:"distinct"`
	Detach   int `json:"detach"`
	Commit   int `json:"commit"`
}

func (m Mix) total() int { return m.Resubmit + m.Distinct + m.Detach + m.Commit }

// class maps a request index to its traffic class.
func (m Mix) class(i int) string {
	r := i % m.total()
	if r < m.Resubmit {
		return ClassResubmit
	}
	r -= m.Resubmit
	if r < m.Distinct {
		return ClassDistinct
	}
	r -= m.Distinct
	if r < m.Detach {
		return ClassDetach
	}
	return ClassCommit
}

// Profile configures one load run.
type Profile struct {
	Name        string `json:"name"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`
	Seed        int64  `json:"seed"`
	Mix         Mix    `json:"mix"`
	// DistinctPool is how many distinct systems the distinct and detach
	// classes cycle through (default 4): once the pool has been seen the
	// classes start hitting the cache too, like a real request mix.
	DistinctPool int `json:"distinct_pool"`
	// Strategy is the strategy query parameter (default "mh").
	Strategy string `json:"strategy,omitempty"`
	// CacheOff appends cache=off to every request: the baseline the
	// acceptance gate compares cached latencies against.
	CacheOff bool `json:"cache_off,omitempty"`
}

// Named returns a predefined profile. The zero fields of the result can
// still be overridden by the caller.
func Named(name string) (Profile, bool) {
	switch name {
	case "smoke":
		// Small enough for a CI gate: mostly resubmits, so the hit rate
		// is high and stable.
		return Profile{Name: "smoke", Requests: 40, Concurrency: 4, Seed: 1,
			Mix: Mix{Resubmit: 6, Distinct: 2, Detach: 1, Commit: 1}, DistinctPool: 2}, true
	case "mixed":
		return Profile{Name: "mixed", Requests: 120, Concurrency: 8, Seed: 1,
			Mix: Mix{Resubmit: 5, Distinct: 3, Detach: 2, Commit: 2}, DistinctPool: 4}, true
	case "resubmit":
		// Pure identical-resubmit traffic: the class the ≥10× cached-p50
		// acceptance criterion is measured on.
		return Profile{Name: "resubmit", Requests: 80, Concurrency: 8, Seed: 1,
			Mix: Mix{Resubmit: 1}, DistinctPool: 1}, true
	case "cluster":
		// Cluster-shaped traffic for a coordinator target: cache-miss-heavy
		// (distinct and detached solves dominate) so most requests actually
		// dispatch to workers and the per-worker latency rows fill in.
		// pool as large as the distinct-request count, so no distinct
		// solve repeats within a run.
		return Profile{Name: "cluster", Requests: 60, Concurrency: 6, Seed: 1,
			Mix: Mix{Resubmit: 2, Distinct: 4, Detach: 3, Commit: 1}, DistinctPool: 24}, true
	}
	return Profile{}, false
}

func (p Profile) withDefaults() Profile {
	if p.Requests <= 0 {
		p.Requests = 40
	}
	if p.Concurrency <= 0 {
		p.Concurrency = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Mix.total() <= 0 {
		p.Mix = Mix{Resubmit: 1}
	}
	if p.DistinctPool <= 0 {
		p.DistinctPool = 4
	}
	return p
}

// ClassReport aggregates one traffic class. The percentiles are read
// from Histogram (linear interpolation within the bucket), so they are
// approximations bounded by the bucket resolution; the mean is exact.
type ClassReport struct {
	Requests  int                    `json:"requests"`
	Errors    int                    `json:"errors"`
	MeanMS    float64                `json:"mean_ms"`
	P50MS     float64                `json:"p50_ms"`
	P95MS     float64                `json:"p95_ms"`
	P99MS     float64                `json:"p99_ms"`
	Histogram *obs.HistogramSnapshot `json:"histogram,omitempty"` // latency bins, milliseconds
}

// CacheReport tallies the X-Incdes-Cache headers observed across the
// run. Hits and inflight-coalesced responses both avoided a solve, so
// HitRate counts them together. Session commits always solve and carry
// no header, so they do not enter the tally.
type CacheReport struct {
	Hit      int     `json:"hit"`
	Miss     int     `json:"miss"`
	Inflight int     `json:"inflight"`
	HitRate  float64 `json:"hit_rate"`
}

// Report is the artifact of one load run.
type Report struct {
	SchemaVersion int                    `json:"schema_version"`
	Profile       Profile                `json:"profile"`
	CacheEnabled  bool                   `json:"cache_enabled"`
	WallMS        float64                `json:"wall_ms"`
	Classes       map[string]ClassReport `json:"classes"`
	Cache         CacheReport            `json:"cache"`
	// Workers aggregates latencies by the X-Incdes-Worker response
	// attribution a cluster coordinator emits ("w1", "w2,w3" for multi-
	// worker fan-outs). Empty outside cluster runs; cache hits and local
	// solves carry no attribution and are not counted here.
	Workers map[string]ClassReport `json:"workers,omitempty"`
}

// Errors sums the error counts across classes.
func (r *Report) Errors() int {
	n := 0
	for _, c := range r.Classes {
		n += c.Errors
	}
	return n
}

// sample is one completed request.
type sample struct {
	class  string
	ms     float64
	cache  string // X-Incdes-Cache header value, "" when absent
	worker string // X-Incdes-Worker header value, "" when absent
	err    error
}

// Run drives the profile against h — normally serve.Server.Handler()
// wrapped by the caller — and aggregates the results. The handler is
// exercised in-process (httptest request/recorder pairs), so measured
// latencies exclude network and TLS but include queueing, solving,
// caching and JSON encoding.
func Run(h http.Handler, p Profile) (*Report, error) {
	p = p.withDefaults()
	w, err := buildWorkload(h, p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	samples := make([]sample, p.Requests)
	idx := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < p.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				samples[i] = w.issue(h, p, i)
			}
		}()
	}
	for i := 0; i < p.Requests; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rep := &Report{
		SchemaVersion: SchemaVersion,
		Profile:       p,
		WallMS:        float64(time.Since(start)) / float64(time.Millisecond),
		Classes:       map[string]ClassReport{},
	}
	byClass := map[string]*obs.Histogram{}
	byWorker := map[string]*obs.Histogram{}
	workerCounts := map[string]ClassReport{}
	for _, s := range samples {
		c := rep.Classes[s.class]
		c.Requests++
		if s.err != nil {
			c.Errors++
		} else {
			h := byClass[s.class]
			if h == nil {
				h = obs.NewHistogram(latencyBounds())
				byClass[s.class] = h
			}
			h.Observe(s.ms)
		}
		rep.Classes[s.class] = c
		if s.worker != "" {
			wc := workerCounts[s.worker]
			wc.Requests++
			if s.err != nil {
				wc.Errors++
			} else {
				h := byWorker[s.worker]
				if h == nil {
					h = obs.NewHistogram(latencyBounds())
					byWorker[s.worker] = h
				}
				h.Observe(s.ms)
			}
			workerCounts[s.worker] = wc
		}
		switch s.cache {
		case "hit":
			rep.Cache.Hit++
		case "miss":
			rep.Cache.Miss++
		case "inflight":
			rep.Cache.Inflight++
		}
	}
	fill := func(c ClassReport, h *obs.Histogram) ClassReport {
		hs := h.Snapshot()
		c.MeanMS = hs.Mean()
		c.P50MS = hs.Quantile(0.50)
		c.P95MS = hs.Quantile(0.95)
		c.P99MS = hs.Quantile(0.99)
		c.Histogram = &hs
		return c
	}
	for name, h := range byClass {
		rep.Classes[name] = fill(rep.Classes[name], h)
	}
	if len(workerCounts) > 0 {
		rep.Workers = map[string]ClassReport{}
		for name, wc := range workerCounts {
			if h := byWorker[name]; h != nil {
				wc = fill(wc, h)
			}
			rep.Workers[name] = wc
		}
	}
	if n := rep.Cache.Hit + rep.Cache.Miss + rep.Cache.Inflight; n > 0 {
		rep.CacheEnabled = true
		rep.Cache.HitRate = float64(rep.Cache.Hit+rep.Cache.Inflight) / float64(n)
	}
	return rep, nil
}

// workload holds the pre-built request bodies and session plumbing.
type workload struct {
	resubmit  []byte   // one system, posted verbatim by every resubmit request
	distinct  [][]byte // pool systems, cycled by the distinct and detach classes
	commitApp []byte   // one application, committed on per-request branches
	sessionID string
}

// loadSystem builds the deterministic fixture system: 3 nodes, a frozen
// base application and one current application whose size varies with
// variant (variant also perturbs the WCETs, so every variant is a
// genuinely different problem with the same hyperperiod).
func loadSystem(variant int) (*model.System, error) {
	b := model.NewBuilder()
	b.Node("N0")
	b.Node("N1")
	b.Node("N2")
	b.Node("N3")
	b.UniformBus(8, 1, 2)
	addApp(b, "base", 8, 3+variant%2)
	addApp(b, fmt.Sprintf("cur%d", variant), 16+variant%3, 2+variant%3)
	return b.System()
}

func addApp(b *model.Builder, name string, procs, wcet int) {
	g := b.App(name).Graph(name+"-g", tm.Time(120), tm.Time(120))
	var prev model.ProcID
	for i := 0; i < procs; i++ {
		p := g.UniformProc(fmt.Sprintf("%s-p%d", name, i), tm.Time(wcet))
		if i > 0 {
			g.Msg(prev, p, 4)
		}
		prev = p
	}
}

func sysJSON(sys *model.System) ([]byte, error) {
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildWorkload synthesizes the request bodies and, when the mix
// includes commits, opens one session and pre-creates the per-request
// branches so the measured commit latency is the commit POST alone.
func buildWorkload(h http.Handler, p Profile) (*workload, error) {
	w := &workload{}
	// Variant namespaces keep the classes' fingerprints disjoint: the
	// resubmit class must never collide with the distinct pool.
	seed := int(p.Seed % 1000)
	sys, err := loadSystem(1000 + seed)
	if err != nil {
		return nil, fmt.Errorf("load: building resubmit system: %w", err)
	}
	if w.resubmit, err = sysJSON(sys); err != nil {
		return nil, err
	}
	for v := 0; v < p.DistinctPool; v++ {
		sys, err := loadSystem(seed + v)
		if err != nil {
			return nil, fmt.Errorf("load: building pool system %d: %w", v, err)
		}
		body, err := sysJSON(sys)
		if err != nil {
			return nil, err
		}
		w.distinct = append(w.distinct, body)
	}
	if p.Mix.Commit <= 0 {
		return w, nil
	}

	// Session setup: base system without the current application; the
	// commit class re-adds it as its committed application.
	full, err := loadSystem(2000 + seed)
	if err != nil {
		return nil, err
	}
	base := &model.System{Arch: full.Arch, Apps: full.Apps[:1]}
	baseJSON, err := sysJSON(base)
	if err != nil {
		return nil, err
	}
	var appBuf bytes.Buffer
	if err := full.Apps[1].WriteJSON(&appBuf); err != nil {
		return nil, err
	}
	w.commitApp = appBuf.Bytes()

	var sessDoc struct {
		ID string `json:"id"`
	}
	if code, err := w.call(h, "POST", "/v1/sessions", baseJSON, &sessDoc); err != nil || code != http.StatusCreated {
		return nil, fmt.Errorf("load: opening session: status %d, err %v", code, err)
	}
	w.sessionID = sessDoc.ID
	for i := 0; i < p.Requests; i++ {
		if p.Mix.class(i) != ClassCommit {
			continue
		}
		url := fmt.Sprintf("/v1/sessions/%s/branches?name=load%d&from=0", w.sessionID, i)
		if code, err := w.call(h, "POST", url, nil, nil); err != nil || code != http.StatusCreated {
			return nil, fmt.Errorf("load: creating branch load%d: status %d, err %v", i, code, err)
		}
	}
	return w, nil
}

// call issues one untimed setup request against the handler.
func (w *workload) call(h http.Handler, method, url string, body []byte, out any) (int, error) {
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return rec.Code, fmt.Errorf("load: %s %s: %w", method, url, err)
		}
	}
	return rec.Code, nil
}

// issue performs request i and measures it.
func (w *workload) issue(h http.Handler, p Profile, i int) sample {
	class := p.Mix.class(i)
	strategy := p.Strategy
	if strategy == "" {
		strategy = "mh"
	}
	cacheQ := ""
	if p.CacheOff {
		cacheQ = "&cache=off"
	}
	var (
		method = "POST"
		url    string
		body   []byte
	)
	switch class {
	case ClassResubmit:
		url = "/v1/solve?strategy=" + strategy + cacheQ
		body = w.resubmit
	case ClassDistinct:
		url = "/v1/solve?strategy=" + strategy + cacheQ
		body = w.distinct[i%len(w.distinct)]
	case ClassDetach:
		url = "/v1/solve?detach=1&strategy=" + strategy + cacheQ
		body = w.distinct[i%len(w.distinct)]
	case ClassCommit:
		url = fmt.Sprintf("/v1/sessions/%s/commits?branch=load%d&strategy=%s%s",
			w.sessionID, i, strategy, cacheQ)
		body = w.commitApp
	}

	start := time.Now()
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	s := sample{
		class:  class,
		ms:     float64(time.Since(start)) / float64(time.Millisecond),
		cache:  rec.Header().Get("X-Incdes-Cache"),
		worker: rec.Header().Get("X-Incdes-Worker"),
	}
	wantCode := http.StatusOK
	if class == ClassDetach {
		wantCode = http.StatusAccepted
	}
	if rec.Code != wantCode {
		s.err = fmt.Errorf("load: %s %s = %d: %.200s", method, url, rec.Code, rec.Body.String())
		return s
	}
	if class == ClassDetach {
		// The measured latency is the 202; completion is polled untimed so
		// detached work still finishes inside the run.
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			s.err = err
			return s
		}
		s.err = w.await(h, doc.ID)
	}
	return s
}

// await polls a detached job until it leaves the queue.
func (w *workload) await(h http.Handler, id string) error {
	for i := 0; i < 60_000; i++ {
		var doc struct {
			Status string `json:"status"`
		}
		code, err := w.call(h, "GET", "/v1/solve/"+id, nil, &doc)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("load: GET /v1/solve/%s = %d", id, code)
		}
		switch doc.Status {
		case "done", "interrupted":
			return nil
		case "failed":
			return fmt.Errorf("load: detached job %s failed", id)
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("load: detached job %s did not finish", id)
}
