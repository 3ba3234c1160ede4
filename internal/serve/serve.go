// Package serve is the HTTP layer of cmd/incmapd: a long-running solve
// service over the engine. The API lives under the /v1 prefix:
//
//	POST   /v1/solve              submit a system; runs core.Solve, returns the solution
//	GET    /v1/solve/{id}         job status / result document
//	DELETE /v1/solve/{id}         cancel a job (the engine returns best-so-far)
//	GET    /v1/solve/{id}/events  SSE stream of the job's trace + cost-curve points
//
//	POST   /v1/sessions                    open a versioned design session over a base system
//	GET    /v1/sessions                    list session IDs
//	GET    /v1/sessions/{id}               session document (version tree + branches)
//	DELETE /v1/sessions/{id}               delete a session
//	POST   /v1/sessions/{id}/commits       commit one application to a branch (sync or detach=1)
//	POST   /v1/sessions/{id}/branches      create a branch from a version
//	POST   /v1/sessions/{id}/rollback      move a branch head back to an ancestor
//	GET    /v1/sessions/{id}/diff          placement + metric delta between two versions
//
//	GET    /metrics                 Prometheus text exposition (catalog + process gauges)
//	GET    /v1/stats                the cross-strategy aggregate as an obs.Snapshot (JSON)
//	GET    /v1/debug/requests       retained request span trees, newest first (status=, min-duration=, n=)
//	GET    /v1/debug/requests/{id}  one request's span tree
//	GET    /healthz, /readyz        liveness / readiness
//	GET    /debug/pprof/...         net/http/pprof, when Config.EnablePprof
//
// /metrics, /healthz and /readyz are served both unversioned and under
// /v1 (/metrics and /v1/metrics, ...); /debug/pprof is unversioned only.
// Every error response uses one envelope,
// {"error":{"code","message","retry_after_s"?}} — including requests no
// route matches (404, not_found) and wrong-method requests (405,
// bad_request, with the Allow header).
//
// Every job runs with its own obs.Registry and an obs.Collector as its
// tracer, reusing the engine's deterministic emission points: SSE
// subscribers follow the collector, so the streamed event order is the
// canonical trace order, identical at any parallelism. Completed jobs
// fold their registry into per-strategy aggregates (plus an "all"
// aggregate) that /metrics renders. Session commits run through the
// same bounded job manager as one-shot solves, so queue limits,
// timeouts, SSE streaming and cancellation behave identically for both.
//
// The manager is bounded: at most MaxConcurrent solves run at once,
// at most QueueDepth wait behind them (beyond that POST /v1/solve returns
// 429), each job is capped by JobTimeout, and a client disconnect
// cancels its synchronous solve — the engine then returns the best
// design found so far, marked Interrupted. A solve builds its problem
// inside its job. With the solution cache on, a one-shot solve that
// joins a kept result or an identical solve in flight takes no queue
// position and schedules nothing, and one that joins a kept result does
// not decode its body: the table is keyed by the posted bytes
// (cache.go). A session commit always solves.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incdes/internal/cache"
	"incdes/internal/core"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/obs/promtext"
	"incdes/internal/session"
)

// MaxBodyBytes bounds every request body the service reads: the system
// of a solve or a new session, a commit's application, and a cluster
// worker's registration (package cluster).
const MaxBodyBytes = 64 << 20

// bodyPresize caps the buffer readBody sizes from a request's
// Content-Length before any byte arrives, so a request that claims a
// large body but sends little reserves at most this much.
const bodyPresize = 1 << 20

// readBody reads a request body whole, up to MaxBodyBytes. The buffer
// starts at the claimed Content-Length (at most bodyPresize) plus room
// for the read that reports the end, so a body that keeps its claim
// reads in one allocation; a body with no Content-Length, or a longer
// one, grows the buffer as it arrives, up to MaxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(0)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, bodyPresize)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	return buf.Bytes(), err
}

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent is the number of solves running at once (default
	// GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth is how many submitted solves may wait for a slot before
	// POST /v1/solve is rejected with 429 (default 16).
	QueueDepth int
	// JobTimeout caps every job's run time; requests may ask for less
	// but never more. 0 means no cap.
	JobTimeout time.Duration
	// Parallelism is the per-solve evaluation worker count handed to
	// core.Solve when the request does not choose one (0 = one per CPU).
	Parallelism int
	// RetainJobs is how many finished jobs stay queryable via
	// GET /v1/solve/{id} (default 64; running jobs are never evicted).
	RetainJobs int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// SolutionCacheSize bounds the solve results the solution table
	// keeps. 0 disables solution caching and single-flight dedup entirely
	// (the default); see cache.go for the semantics when enabled.
	SolutionCacheSize int
	// SessionStore persists versioned design sessions. nil selects an
	// in-memory store (sessions die with the process); cmd/incmapd wires
	// a session.DiskStore here for durable sessions.
	SessionStore session.Store
	// DebugRequests is how many completed request span trees the
	// /v1/debug/requests ring retains (default 256; negative disables
	// the ring — the endpoints then always report empty/404).
	DebugRequests int
	// SlowRequestLog, when positive, makes every request slower than
	// this emit a one-line span breakdown to SlowLogger.
	SlowRequestLog time.Duration
	// SlowLogger receives slow-request lines (nil = log.Default()).
	SlowLogger *log.Logger
	// Dispatcher, when set, is offered every one-shot solve; requests it
	// claims run on the cluster instead of calling core.Solve locally
	// (see dispatch.go). nil means all solves run locally.
	Dispatcher Dispatcher
	// MetricsExtra, when set, is called at the end of every /metrics
	// scrape with the assembled collection — the cluster coordinator
	// appends per-worker rows here.
	MetricsExtra func(*promtext.Collection)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 64
	}
	if c.DebugRequests == 0 {
		c.DebugRequests = 256
	}
	return c
}

// Server is the incmapd HTTP service. Create with New, serve its
// Handler, Close on shutdown.
type Server struct {
	cfg     Config
	start   time.Time
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the request middleware

	baseCtx context.Context
	stop    context.CancelFunc
	ready   atomic.Bool

	sem     chan struct{} // MaxConcurrent slots
	running atomic.Int64
	queued  atomic.Int64

	// Request-scoped observability (debug.go).
	reqSeq   atomic.Int64 // generated correlation IDs
	recorder *obs.SpanRecorder

	// Whole-solution cache + single-flight dedup (nil when disabled).
	solutions *cache.Table

	sessions *session.Manager
	sessErr  error // deferred session-manager init failure

	mu       sync.Mutex
	nextID   int64
	jobs     map[string]*job
	finished []string                 // eviction order
	perStrat map[string]*obs.Registry // catalog aggregates by strategy tag
	global   *obs.Registry            // catalog aggregate across strategies
	solves   map[[2]string]int64      // completed solves by {strategy, status}
}

// New assembles a server. The global aggregate registry is pre-seeded
// with the full instrument catalog so /metrics exposes every catalog
// metric from the first scrape, before any solve has run.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		baseCtx:  ctx,
		stop:     stop,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		jobs:     map[string]*job{},
		perStrat: map[string]*obs.Registry{},
		global:   obs.NewRegistry(),
		solves:   map[[2]string]int64{},
	}
	if cfg.SolutionCacheSize > 0 {
		s.solutions = cache.NewTable(cfg.SolutionCacheSize)
	}
	s.recorder = obs.NewSpanRecorder(cfg.DebugRequests)
	seedCatalog(s.global)
	// Session manager: session.* instruments land in the global aggregate
	// registry (the catalog pre-seed above already exposes them as zeros).
	store := cfg.SessionStore
	if store == nil {
		store = session.NewMemStore()
	}
	s.sessions, s.sessErr = session.NewManager(store, s.global)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/solve/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/solve/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/solve/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/commits", s.handleSessionCommit)
	s.mux.HandleFunc("POST /v1/sessions/{id}/branches", s.handleSessionBranch)
	s.mux.HandleFunc("POST /v1/sessions/{id}/rollback", s.handleSessionRollback)
	s.mux.HandleFunc("GET /v1/sessions/{id}/diff", s.handleSessionDiff)
	// Infrastructure endpoints answer on both spellings: probes, scrapers
	// and cluster peers use either.
	for _, prefix := range []string{"", "/v1"} {
		s.mux.HandleFunc("GET "+prefix+"/metrics", s.handleMetrics)
		s.mux.HandleFunc("GET "+prefix+"/healthz", s.handleHealthz)
		s.mux.HandleFunc("GET "+prefix+"/readyz", s.handleReadyz)
	}
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /v1/debug/requests/{id}", s.handleDebugRequest)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.instrument(http.HandlerFunc(s.route))
	s.ready.Store(true)
	return s
}

// seedCatalog materializes every declared instrument in a registry so
// exposition shows the full catalog (as zeros) regardless of what has
// run.
func seedCatalog(r *obs.Registry) {
	for _, ins := range obs.Catalog() {
		switch ins.Kind {
		case obs.KindCounter:
			r.Counter(ins.Name)
		case obs.KindGauge:
			r.Gauge(ins.Name)
		case obs.KindHistogram:
			r.Histogram(ins.Name)
		}
	}
}

// route serves a request through the mux and answers what the mux
// cannot route with the error envelope. The mux still decides between
// 404 and 405 and computes the Allow header; only its plain-text body
// is replaced.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	h, pattern := s.mux.Handler(r)
	if pattern != "" {
		s.mux.ServeHTTP(w, r)
		return
	}
	rec := &unroutedRecorder{header: http.Header{}}
	h.ServeHTTP(rec, r)
	if rec.status == http.StatusMethodNotAllowed {
		w.Header().Set("Allow", rec.header.Get("Allow"))
		writeError(w, http.StatusMethodNotAllowed, ErrCodeBadRequest,
			"method %s not allowed on %s", r.Method, r.URL.Path)
		return
	}
	writeError(w, http.StatusNotFound, ErrCodeNotFound, "no endpoint %s %s", r.Method, r.URL.Path)
}

// unroutedRecorder captures the status and headers of the mux's own
// 404/405 answer and discards its body.
type unroutedRecorder struct {
	header http.Header
	status int
}

func (u *unroutedRecorder) Header() http.Header         { return u.header }
func (u *unroutedRecorder) WriteHeader(status int)      { u.status = status }
func (u *unroutedRecorder) Write(b []byte) (int, error) { return len(b), nil }

// Handler returns the service's HTTP handler: the router wrapped in
// the request-observability middleware (correlation IDs, span traces,
// latency histogram, slow-request log).
func (s *Server) Handler() http.Handler { return s.handler }

// Close drains the server: readiness flips to 503 and every running
// job's context is cancelled (the engine returns best-so-far designs).
func (s *Server) Close() {
	s.ready.Store(false)
	s.stop()
}

// JobStatusDoc is the JSON document of GET /v1/solve/{id} and the body of
// a synchronous POST /v1/solve response.
type JobStatusDoc struct {
	ID       string        `json:"id"`
	Status   string        `json:"status"`
	Strategy string        `json:"strategy"`
	Error    string        `json:"error,omitempty"`
	Commit   *CommitInfo   `json:"commit,omitempty"`
	Solution *SolutionDoc  `json:"solution,omitempty"`
	Stats    *obs.Snapshot `json:"stats,omitempty"`
	// Worker names the cluster worker(s) that executed a dispatched
	// solve, comma-joined in unit order; empty for local solves.
	Worker string `json:"worker,omitempty"`
	// RequestID and Spans tie a (typically detached) job back to the
	// request trace that submitted it: the correlation ID plus the
	// trace's spans in start order once the job is terminal. A cluster
	// coordinator grafts a unit's spans into its own trace.
	RequestID string             `json:"request_id,omitempty"`
	Spans     []obs.SpanSnapshot `json:"spans,omitempty"`
}

func (s *Server) statusDoc(j *job) *JobStatusDoc {
	status, doc, err := j.snapshot()
	out := &JobStatusDoc{ID: j.id, Status: status, Strategy: j.strategy, Commit: j.commitInfo(), Solution: doc, Worker: j.workerTag()}
	if err != nil {
		out.Error = err.Error()
	}
	out.RequestID = j.trace.ID()
	if status == StatusDone || status == StatusInterrupted {
		snap := j.reg.Snapshot()
		out.Stats = &snap
		out.Spans = j.trace.Snapshot()
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// Stable machine-readable error codes of the unified error envelope.
// Clients switch on the code; the message is for humans only.
const (
	ErrCodeBadRequest    = "bad_request"    // malformed query, body or parameter
	ErrCodeNotFound      = "not_found"      // unknown job, session, branch or version
	ErrCodeInvalidInput  = "invalid_input"  // a session base whose applications do not fit
	ErrCodeQueueFull     = "queue_full"     // solve queue at capacity; retry later
	ErrCodeDraining      = "draining"       // server is shutting down
	ErrCodeIllegalCommit = "illegal_commit" // commit violates the session legality rule
	ErrCodeConflict      = "conflict"       // concurrent modification or duplicate
	ErrCodeCorrupt       = "corrupt"        // stored session fails fingerprint replay
	ErrCodeUnsupported   = "unsupported"    // transport capability missing (e.g. no streaming)
	ErrCodeInternal      = "internal"       // unexpected server-side failure
)

// ErrorBody is the payload of the unified error envelope.
type ErrorBody struct {
	Code        string  `json:"code"`
	Message     string  `json:"message"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// ErrorDoc is the unified JSON error envelope every serve handler
// returns on failure: {"error":{"code","message","retry_after_s"?}}.
type ErrorDoc struct {
	Error ErrorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorDoc{Error: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeRetryError is writeError plus retry advice, in both the HTTP
// Retry-After header and the envelope's retry_after_s field.
func writeRetryError(w http.ResponseWriter, status int, code string, retryAfter time.Duration, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
	writeJSON(w, status, ErrorDoc{Error: ErrorBody{
		Code:        code,
		Message:     fmt.Sprintf(format, args...),
		RetryAfterS: retryAfter.Seconds(),
	}})
}

// writeSessionError maps the session package's sentinel errors onto the
// envelope. Anything unrecognized is an internal error.
func writeSessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, session.ErrNotFound),
		errors.Is(err, session.ErrUnknownBranch),
		errors.Is(err, session.ErrUnknownVersion):
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "%v", err)
	case errors.Is(err, session.ErrIllegalCommit),
		errors.Is(err, session.ErrNotAncestor),
		errors.Is(err, core.ErrUnschedulable):
		writeError(w, http.StatusUnprocessableEntity, ErrCodeIllegalCommit, "%v", err)
	case errors.Is(err, session.ErrBaseDoesNotFit):
		writeError(w, http.StatusUnprocessableEntity, ErrCodeInvalidInput, "%v", err)
	case errors.Is(err, session.ErrBranchExists),
		errors.Is(err, session.ErrConflict),
		errors.Is(err, session.ErrExists):
		writeError(w, http.StatusConflict, ErrCodeConflict, "%v", err)
	case errors.Is(err, session.ErrCorrupt):
		writeError(w, http.StatusInternalServerError, ErrCodeCorrupt, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
	}
}

// parseSolveParams decodes the POST /v1/solve query string.
func parseSolveParams(r *http.Request) (SolveParams, error) {
	q := r.URL.Query()
	p := SolveParams{
		Strategy: q.Get("strategy"),
		App:      q.Get("app"),
		Detach:   q.Get("detach") == "1" || q.Get("detach") == "true",
	}
	intq := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s=%q", name, v)
			}
			*dst = n
		}
		return nil
	}
	for name, dst := range map[string]*int{
		"sa-iters": &p.SAIters, "sa-restarts": &p.SARestarts,
		"sa-chain-offset": &p.SAChainOffset, "parallel": &p.Parallel,
	} {
		if err := intq(name, dst); err != nil {
			return p, err
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad seed=%q", v)
		}
		p.SASeed = n
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return p, fmt.Errorf("bad timeout=%q", v)
		}
		p.Timeout = d
	}
	switch v := q.Get("cache"); v {
	case "", "on":
	case "off", "0", "false":
		p.NoCache = true
	default:
		return p, fmt.Errorf("bad cache=%q (want off)", v)
	}
	return p, nil
}

// Query encodes p as the POST /v1/solve query string, the exact inverse
// of parseSolveParams. A cluster coordinator posts each work unit to its
// worker with it.
func (p SolveParams) Query() string {
	q := url.Values{}
	for name, v := range map[string]string{"strategy": p.Strategy, "app": p.App} {
		if v != "" {
			q.Set(name, v)
		}
	}
	for name, v := range map[string]int64{
		"sa-iters": int64(p.SAIters), "sa-restarts": int64(p.SARestarts), "seed": p.SASeed,
		"sa-chain-offset": int64(p.SAChainOffset), "parallel": int64(p.Parallel),
	} {
		if v != 0 {
			q.Set(name, strconv.FormatInt(v, 10))
		}
	}
	if p.Timeout > 0 {
		q.Set("timeout", p.Timeout.String())
	}
	if p.Detach {
		q.Set("detach", "1")
	}
	if p.NoCache {
		q.Set("cache", "off")
	}
	return q.Encode()
}

// submit registers a new job if the queue has room, bound to the
// submitting request's span trace (nil is fine).
func (s *Server) submit(strategyTag string, rt *obs.RequestTrace) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(s.queued.Load()) >= s.cfg.QueueDepth {
		return nil, fmt.Errorf("queue full: %d solves waiting", s.queued.Load())
	}
	s.queued.Add(1)
	return s.registerLocked(strategyTag, rt), nil
}

// register creates a job outside the queue accounting: cache hits and
// followers do no solver work, so they bypass admission control entirely.
func (s *Server) register(strategyTag string, rt *obs.RequestTrace) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerLocked(strategyTag, rt)
}

func (s *Server) registerLocked(strategyTag string, rt *obs.RequestTrace) *job {
	s.nextID++
	deleted, markDeleted := context.WithCancel(context.Background())
	j := &job{
		id:          "j" + strconv.FormatInt(s.nextID, 10),
		strategy:    strategyTag,
		reg:         obs.NewRegistry(),
		buf:         &obs.Collector{},
		trace:       rt,
		deleted:     deleted,
		markDeleted: markDeleted,
		status:      StatusQueued,
		done:        make(chan struct{}),
	}
	s.jobs[j.id] = j
	return j
}

// jobContext derives a job's context from ctx, which should already be
// bound to the client (sync) or the server (detached), and adds the
// other ways a job ends: DELETE (through j.deleted, also when it came
// first), server shutdown, and the requested timeout capped by
// JobTimeout. The caller must call the returned release when the job is
// done.
func (s *Server) jobContext(ctx context.Context, j *job, requested time.Duration) (context.Context, func()) {
	ctx, cancel := context.WithCancel(ctx)
	stopDelete := context.AfterFunc(j.deleted, cancel)
	stopWatch := context.AfterFunc(s.baseCtx, cancel) // shutdown cancels jobs
	timeout := requested
	if s.cfg.JobTimeout > 0 && (timeout <= 0 || timeout > s.cfg.JobTimeout) {
		timeout = s.cfg.JobTimeout
	}
	tcancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, tcancel = context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {
		tcancel()
		stopWatch()
		stopDelete()
		cancel()
	}
}

// run executes one job to completion: waits for a worker slot, invokes
// the job's work closure (a one-shot solve or a session commit), records
// the outcome and folds the job's registry into the aggregates. It
// returns the error that failed the job before its work started
// (cancellation while queued), and nil once the work ran.
func (s *Server) run(ctx context.Context, j *job, requested time.Duration, work func(context.Context) (*SolutionDoc, error)) error {
	ctx, release := s.jobContext(ctx, j, requested)
	defer release()

	// Wait for a slot; cancellation while queued fails the job without
	// burning one. The wait is a span of its own plus the queue-wait
	// histogram — the admission latency a client actually feels.
	qstart := time.Now()
	_, qspan := obs.StartSpan(ctx, "queue.wait")
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		qspan.End()
		j.reg.Histogram(obs.HstQueueWaitSeconds).ObserveSince(qstart)
		s.queued.Add(-1)
		err := fmt.Errorf("cancelled while queued: %w", ctx.Err())
		j.finish(nil, err)
		s.finalize(j)
		return err
	}
	qspan.End()
	j.reg.Histogram(obs.HstQueueWaitSeconds).ObserveSince(qstart)
	s.queued.Add(-1)
	s.running.Add(1)
	defer func() {
		s.running.Add(-1)
		<-s.sem
	}()
	j.setStatus(StatusRunning)
	j.finish(work(ctx))
	s.finalize(j)
	return nil
}

// solveWork builds a one-shot solve's work closure. A local solve builds
// the problem inside the job: building it schedules every frozen
// application once (BuildProblem walks them in arrival order), so each
// counts as one examined design alternative — the per-request
// base-reconstruction cost that versioned sessions amortize across
// commits. A problem whose frozen applications do not fit fails the job.
//
// When a cluster dispatcher claims the request, the closure forwards the
// posted bytes as they came, without building anything; core.Solve
// determinism plus the dispatcher's index-ordered reduce make the
// returned document byte-identical either way, so caching and
// single-flight wrap both paths without distinction.
func (s *Server) solveWork(j *job, sys *model.System, body []byte, params SolveParams) func(context.Context) (*SolutionDoc, error) {
	if d := s.cfg.Dispatcher; d != nil && d.CanDispatch(params) {
		return func(ctx context.Context) (*SolutionDoc, error) {
			t0 := time.Now()
			res, err := d.Dispatch(ctx, &DispatchRequest{
				Body:     body,
				Params:   params,
				Registry: j.reg,
				Tracer:   j.buf,
			})
			j.reg.Histogram(obs.HstSolveSeconds).ObserveSince(t0)
			if err != nil {
				return nil, err
			}
			j.setWorker(res.Worker)
			return res.Doc, nil
		}
	}
	return func(ctx context.Context) (*SolutionDoc, error) {
		strat, err := params.Resolve() // validated at submit; cannot fail here
		if err != nil {
			return nil, err
		}
		p, err := BuildProblem(sys, params.App)
		if err != nil {
			return nil, fmt.Errorf("building problem: %w", err)
		}
		j.reg.Counter(obs.CtrEvaluations).Add(int64(len(sys.Apps) - 1))
		t0 := time.Now()
		sol, err := core.Solve(ctx, p, core.Options{
			Strategy:    strat,
			Parallelism: s.parallelism(params),
			Observer:    &obs.Observer{Stats: j.reg, Tracer: j.buf},
		})
		j.reg.Histogram(obs.HstSolveSeconds).ObserveSince(t0)
		if err != nil {
			return nil, err
		}
		return NewSolutionDoc(sol)
	}
}

func (s *Server) parallelism(params SolveParams) int {
	if params.Parallel > 0 {
		return params.Parallel
	}
	return s.cfg.Parallelism
}

// finalize folds a finished job into the aggregates and evicts the
// oldest finished jobs beyond the retention bound.
func (s *Server) finalize(j *job) {
	status, _, _ := j.snapshot()
	snap := j.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	agg, ok := s.perStrat[j.strategy]
	if !ok {
		agg = obs.NewRegistry()
		s.perStrat[j.strategy] = agg
	}
	agg.Merge(snap)
	s.global.Merge(snap)
	s.solves[[2]string{j.strategy, status}]++
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.RetainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeRetryError(w, http.StatusServiceUnavailable, ErrCodeDraining, time.Second, "server is draining")
		return
	}
	params, err := parseSolveParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	strat, err := params.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "reading system: %v", err)
		return
	}
	// A cached request joins its key's flight before it decodes. A hit
	// answers from the landed flight without decoding: its leader
	// decoded, validated and solved these bytes. Every other request
	// decodes them.
	var f *cache.Flight
	outcome := ""
	if s.solutions != nil && !params.NoCache {
		f, outcome = s.lookup(r.Context(), body, params)
	}
	// A leader refused, cancelled before its solve starts or posting
	// bytes that fail lands its flight with that error, which the
	// members that joined meanwhile share.
	abandon := func(err error) {
		if outcome == "miss" && err != nil {
			f.Complete(nil, err, false)
			f.Leave()
		}
	}
	var sys *model.System
	if outcome != "hit" {
		if sys, err = model.ReadSystem(bytes.NewReader(body)); err != nil {
			abandon(err)
			if outcome == "inflight" {
				f.Leave()
			}
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "reading system: %v", err)
			return
		}
	}
	// A member of a landed flight (a hit) or of one still in flight only
	// waits for its result, outside admission; only a leader, or an
	// uncached request, queues.
	if outcome == "hit" || outcome == "inflight" {
		counter := obs.CtrSolveCacheInflight
		if outcome == "hit" {
			counter = obs.CtrSolveCacheHits
		}
		s.global.Counter(counter).Inc()
		w.Header().Set(cacheHeader, outcome)
		j := s.register(strat.Name(), obs.TraceFrom(r.Context()))
		s.answer(w, r, j, params.Detach, func(ctx context.Context) { s.runFollower(ctx, j, params.Timeout, f) })
		return
	}
	j, err := s.submit(strat.Name(), obs.TraceFrom(r.Context()))
	if err != nil {
		abandon(err)
		writeRetryError(w, http.StatusTooManyRequests, ErrCodeQueueFull, time.Second, "%v", err)
		return
	}
	work := s.solveWork(j, sys, body, params)
	if f != nil {
		w.Header().Set(cacheHeader, "miss")
		s.global.Counter(obs.CtrSolveCacheMisses).Inc()
		work = s.leaderWork(f, j, work)
	}
	s.answer(w, r, j, params.Detach, func(ctx context.Context) { abandon(s.run(ctx, j, params.Timeout, work)) })
}

// answer runs job j through run and answers the request for it.
//
// A detached job belongs to the server, not the request: it outlives the
// connection and is cancelled only by DELETE, timeout or shutdown.
// CopyTrace keeps the request's span trace (but not its cancellation)
// attached to it, and the answer is 202 with the job's Location at once.
//
// A synchronous job is bound to the connection: a client disconnect
// cancels it, and the engine reports the best design found so far, marked
// interrupted. The answer is the job's status document, 422 when the job
// failed, with the worker(s) of a dispatched solve in a header.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, j *job, detach bool, run func(context.Context)) {
	if detach {
		go run(obs.CopyTrace(s.baseCtx, r.Context()))
		w.Header().Set("Location", "/v1/solve/"+j.id)
		writeJSON(w, http.StatusAccepted, &JobStatusDoc{ID: j.id, Status: StatusQueued, Strategy: j.strategy})
		return
	}
	run(r.Context())
	if wt := j.workerTag(); wt != "" {
		w.Header().Set(workerHeader, wt)
	}
	doc := s.statusDoc(j)
	code := http.StatusOK
	if doc.Status == StatusFailed {
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, doc)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.statusDoc(j))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "no such job")
		return
	}
	j.markDeleted()
	writeJSON(w, http.StatusOK, map[string]string{"id": j.id, "status": "cancelling"})
}

// ssePayload is the cost-curve point streamed alongside trace events.
type ssePayload struct {
	N    int     `json:"n"`
	Kind string  `json:"kind"`
	Cost float64 `json:"cost"`
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, ErrCodeUnsupported, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	enc := json.NewEncoder(w)
	next, curve := 0, 0
	for {
		evs, done, wait := j.buf.Next(next)
		for _, ev := range evs {
			fmt.Fprintf(w, "event: trace\nid: %d\ndata: ", ev.Seq)
			enc.Encode(ev) // one line + '\n'
			fmt.Fprint(w, "\n")
			if obs.OnCostCurve(ev.Kind) {
				curve++
				fmt.Fprint(w, "event: cost\ndata: ")
				enc.Encode(ssePayload{N: curve, Kind: ev.Kind, Cost: ev.Cost})
				fmt.Fprint(w, "\n")
			}
		}
		next += len(evs)
		if len(evs) > 0 {
			flusher.Flush()
		}
		if done && len(evs) == 0 {
			status, doc, jerr := j.snapshot()
			final := map[string]any{"status": status}
			if doc != nil {
				final["objective"] = doc.Objective
				final["evaluations"] = doc.Evaluations
			}
			if jerr != nil {
				final["error"] = jerr.Error()
			}
			fmt.Fprint(w, "event: done\ndata: ")
			enc.Encode(final)
			fmt.Fprint(w, "\n")
			flusher.Flush()
			return
		}
		if wait != nil {
			select {
			case <-wait:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// statsLocked refreshes the cache-occupancy gauge and snapshots the
// cross-strategy aggregate: the {strategy="all"} rows of /metrics and
// the body of /v1/stats. The gauge reads the table directly, so it is
// current at every scrape. The caller holds s.mu, so the snapshot agrees
// with the per-strategy aggregates that finalize folds under the same
// lock.
func (s *Server) statsLocked() obs.Snapshot {
	if s.solutions != nil {
		s.global.Gauge(obs.GagSolveCacheEntries).Set(int64(s.solutions.Len()))
	}
	return s.global.Snapshot()
}

// handleStats serves GET /v1/stats, which a cluster coordinator merges
// into its own /v1/metrics under the worker's label.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snap := s.statsLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := promtext.NewCollection(promtext.DefaultNamespace)

	// The instrument catalog: the cross-strategy aggregate under
	// {strategy="all"}, plus one label set per strategy that has run.
	// "all" is the sum of the others; filter by label when aggregating.
	// finalize merges every job into both its strategy's aggregate and
	// "all", and "all" is seeded with the whole catalog, so every
	// per-strategy series has its {strategy="all"} counterpart.
	s.mu.Lock()
	c.Add(map[string]string{"strategy": "all"}, s.statsLocked())
	for tag, reg := range s.perStrat {
		c.Add(map[string]string{"strategy": tag}, reg.Snapshot())
	}
	for key, n := range s.solves {
		c.AddCounter("solves", "completed solve jobs by strategy and status",
			map[string]string{"strategy": key[0], "status": key[1]}, float64(n))
	}
	s.mu.Unlock()

	// Process- and service-level gauges.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.AddGauge("process.uptime_seconds", "seconds since the server started", nil, time.Since(s.start).Seconds())
	c.AddGauge("process.goroutines", "current goroutine count", nil, float64(runtime.NumGoroutine()))
	c.AddGauge("process.heap_alloc_bytes", "bytes of allocated heap objects", nil, float64(ms.HeapAlloc))
	c.AddGauge("process.heap_sys_bytes", "bytes of heap obtained from the OS", nil, float64(ms.HeapSys))
	c.AddGauge("solves.in_flight", "solves currently running", nil, float64(s.running.Load()))
	c.AddGauge("solves.queued", "solves waiting for a worker slot", nil, float64(s.queued.Load()))

	// Cluster hook: the coordinator appends per-worker rows and the
	// cross-worker aggregate here.
	if s.cfg.MetricsExtra != nil {
		s.cfg.MetricsExtra(c)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.Write(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz serves the readiness probe. The status-code contract is
// the load balancer's signal (200 ready, 503 draining); the JSON body
// adds the load signal a cluster coordinator's prober consumes for
// load-aware work assignment.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	doc := ReadyDoc{
		Status:     "ready",
		QueueDepth: s.queued.Load(),
		InFlight:   s.running.Load(),
	}
	if !s.ready.Load() {
		doc.Status = "draining"
		doc.Draining = true
		writeJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
