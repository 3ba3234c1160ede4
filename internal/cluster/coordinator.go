package cluster

// Coordinator: the serve.Dispatcher that executes core's work units of a
// solve on workers — placing them, reassigning on failure, duplicating
// units stuck on ejected workers — and folds the results with
// core.Reduce (see the package doc for the full argument).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"incdes/internal/core"
	"incdes/internal/obs"
	"incdes/internal/obs/promtext"
	"incdes/internal/serve"
)

// Options tune a Coordinator. Zero values select the defaults.
type Options struct {
	// Workers are statically configured worker base URLs (registered
	// before the first dispatch). Workers may also self-register at
	// runtime via POST RegisterPath.
	Workers []string
	// ProbeInterval is the /readyz health-probe cadence (default 1s),
	// and how often a unit whose attempts all run on ejected workers is
	// duplicated on a healthy one.
	ProbeInterval time.Duration
}

// probeFailLimit ejects a worker after this many consecutive failed
// probes. The prober readmits it on the next success.
const probeFailLimit = 3

// unitGrace is how long unit requests outlive the job deadline: long
// enough for the workers' interrupted answers to come back.
const unitGrace = 3 * time.Second

// maxAnswerBytes bounds the answer read from a worker.
const maxAnswerBytes = 16 << 20

// statsTimeout bounds each worker's stats fetch during a /v1/metrics
// scrape, so the exposition does not block on a dead node.
const statsTimeout = 2 * time.Second

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	return o
}

// Coordinator implements serve.Dispatcher over a worker fleet.
type Coordinator struct {
	opts Options
	reg  *registry
	// client carries all coordinator→worker traffic. It has no global
	// timeout: unit requests last as long as their solves, and probes
	// and stats fetches bound themselves with context deadlines.
	client *http.Client
	// own holds the coordinator's fleet-management instruments (probes,
	// ejections, healthy-worker gauge) — exported on /v1/metrics under
	// {worker="coordinator"}. Unit-lifecycle counters go to the job
	// registry instead, so they fold into the serve aggregates.
	own *obs.Registry

	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// NewCoordinator builds the fleet registry and starts the health
// prober. Call Close to stop it.
func NewCoordinator(opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:      opts,
		reg:       newRegistry(),
		client:    &http.Client{},
		own:       obs.NewRegistry(),
		probeDone: make(chan struct{}),
	}
	for _, u := range opts.Workers {
		c.reg.add(u)
	}
	c.own.Gauge(obs.GagClusterWorkers).Set(int64(c.reg.healthyCount()))
	ctx, cancel := context.WithCancel(context.Background())
	c.probeCancel = cancel
	go c.probeLoop(ctx)
	return c
}

// Close stops the health prober.
func (c *Coordinator) Close() {
	c.probeCancel()
	<-c.probeDone
}

// Handler mounts the worker-registration endpoints in front of next
// (normally the coordinator's serve handler).
func (c *Coordinator) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+RegisterPath, c.handleRegister)
	mux.HandleFunc("GET "+RegisterPath, c.handleWorkers)
	mux.Handle("/", next)
	return mux
}

// handleRegister admits a worker by its base URL, which must be an
// absolute http or https URL; anything else, including a body over
// serve.MaxBodyBytes, gets the serve error envelope and never enters the
// registry.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var p RegisterParams
	body := http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&p); err != nil || !validWorkerURL(p.URL) {
		writeJSON(w, http.StatusBadRequest, serve.ErrorDoc{Error: serve.ErrorBody{
			Code: serve.ErrCodeBadRequest, Message: `body must be {"url":"http(s)://host[:port]"}`,
		}})
		return
	}
	name := c.reg.add(strings.TrimRight(p.URL, "/"))
	writeJSON(w, http.StatusOK, map[string]string{"name": name})
}

func validWorkerURL(raw string) bool {
	u, err := url.Parse(raw)
	return err == nil && (u.Scheme == "http" || u.Scheme == "https") && u.Host != ""
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": c.reg.info()})
}

// probeLoop polls every worker's /readyz, feeding the load signal and
// health state the placement logic uses. A round probes the workers
// concurrently, each for at most one interval, so hung workers delay
// neither the healthy ones nor their own ejection.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	tick := time.NewTicker(c.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			var wg sync.WaitGroup
			for _, w := range c.reg.list() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.probe(ctx, w)
				}()
			}
			wg.Wait()
			c.own.Gauge(obs.GagClusterWorkers).Set(int64(c.reg.healthyCount()))
		}
	}
}

// probe checks one worker. Only a 200 with a parsable body counts as
// healthy: a draining worker (503) stops receiving new units.
func (c *Coordinator) probe(ctx context.Context, w *workerState) {
	c.own.Counter(obs.CtrClusterProbes).Inc()
	pctx, cancel := context.WithTimeout(ctx, c.opts.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.url+"/readyz", nil)
	if err != nil {
		c.probeFailed(w)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.probeFailed(w)
		return
	}
	defer resp.Body.Close()
	var doc serve.ReadyDoc
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&doc) != nil {
		c.probeFailed(w)
		return
	}
	c.reg.probeOK(w, doc.QueueDepth, doc.InFlight)
}

func (c *Coordinator) probeFailed(w *workerState) {
	if c.reg.probeFail(w, probeFailLimit) {
		c.own.Counter(obs.CtrClusterEjections).Inc()
	}
}

// CanDispatch claims every ordinary solve while at least one worker is
// schedulable. Chain-slice requests (sa-chain-offset set) are already
// cluster work units and always run locally — a coordinator that is
// also registered as someone's worker must not re-shard them.
func (c *Coordinator) CanDispatch(p serve.SolveParams) bool {
	return p.SAChainOffset == 0 && c.reg.healthyCount() > 0
}

// unitParams maps a planned unit onto the worker's /v1/solve
// parameters: whole units name their strategy, and SA chain k runs as
// sa-restarts=1&sa-chain-offset=k, which reproduces exactly chain k of
// the local restart fan.
func unitParams(p serve.SolveParams, u core.Unit) serve.SolveParams {
	up := serve.SolveParams{
		Strategy: strings.ToLower(u.Name),
		App:      p.App,
		Timeout:  p.Timeout,
		NoCache:  p.NoCache,
	}
	if u.Name == "SA" {
		up.SAIters = p.SAIters
		up.SASeed = p.SASeed
		up.SARestarts = 1
		up.SAChainOffset = u.Chain
	}
	return up
}

// outcome is one unit's terminal result.
type outcome struct {
	doc    *serve.JobStatusDoc
	worker string
	err    error
}

// Dispatch shards, executes and reduces one solve. The units and the
// reduce are core's: the coordinator plans from the same strategy value
// a local solve runs and only executes the units remotely.
//
// A job deadline ends a dispatched solve the way it ends a local one,
// with the best design found so far: every unit gets the time left as
// its own timeout, and the unit requests outlive the job deadline by 3s
// (unitGrace) to carry the workers' interrupted answers back. Only an
// explicit cancellation (DELETE, client disconnect, shutdown) stops the
// unit requests at once and fails the dispatch.
func (c *Coordinator) Dispatch(ctx context.Context, req *serve.DispatchRequest) (*serve.DispatchResult, error) {
	strat, err := req.Params.Resolve()
	if err != nil {
		return nil, err
	}
	params := req.Params
	unitCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	if dl, ok := ctx.Deadline(); ok {
		params.Timeout = time.Until(dl)
		var cancelAfter context.CancelFunc
		unitCtx, cancelAfter = context.WithDeadline(unitCtx, dl.Add(unitGrace))
		defer cancelAfter()
	}
	stop := context.AfterFunc(ctx, func() {
		if errors.Is(ctx.Err(), context.Canceled) {
			cancel()
		}
	})
	defer stop()
	plan := core.Plan(strat)
	units := plan.Units
	var buf bytes.Buffer
	if err := req.System.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("cluster: serializing system: %w", err)
	}
	system := buf.Bytes()

	rt := obs.TraceFrom(ctx)
	requestID := ""
	if rt != nil {
		requestID = rt.ID()
	}
	dctx, dspan := obs.StartSpan(ctx, "cluster.dispatch")
	spans := make([]*obs.Span, len(units))
	for i, u := range units {
		_, spans[i] = obs.StartSpan(dctx, "cluster.unit")
		if spans[i] != nil {
			spans[i].SetAttr("unit", strconv.Itoa(i))
			spans[i].SetAttr("strategy", u.Name)
			if u.Name == "SA" {
				spans[i].SetAttr("chain", strconv.Itoa(u.Chain))
			}
		}
	}

	outs := make([]outcome, len(units))
	var wg sync.WaitGroup
	for i := range units {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc, worker, err := c.runUnit(unitCtx, req.Registry, unitRequestID(requestID, i), unitParams(params, units[i]).Query(), system)
			outs[i] = outcome{doc: doc, worker: worker, err: err}
		}(i)
	}
	wg.Wait()

	// Graft the worker-side span trees in unit order, so the combined
	// trace is deterministic up to timings and worker names.
	for i := range units {
		if spans[i] == nil {
			continue
		}
		if outs[i].worker != "" {
			spans[i].SetAttr("worker", outs[i].worker)
		}
		spans[i].End()
		if outs[i].doc != nil {
			rt.AttachRemote(spans[i], outs[i].doc.Spans, map[string]string{"worker": outs[i].worker})
		}
	}
	if dspan != nil {
		dspan.End()
	}
	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		return nil, err
	}

	doc, winner, err := foldResults(plan, outs)
	if err != nil {
		return nil, err
	}
	c.emitTrace(req.Tracer, units, outs, doc, winner)

	var workers []string
	seen := map[string]bool{}
	for _, o := range outs {
		if o.worker != "" && !seen[o.worker] {
			seen[o.worker] = true
			workers = append(workers, o.worker)
		}
	}
	return &serve.DispatchResult{Doc: doc, Worker: strings.Join(workers, ",")}, nil
}

// attempt is one worker's answer for a unit.
type attempt struct {
	doc *serve.JobStatusDoc
	err error
	ws  *workerState
}

// runUnit executes one unit with retries and work stealing. Duplicated
// or reassigned attempts are safe: every attempt of one unit computes
// the identical result, so the first answer wins.
func (c *Coordinator) runUnit(ctx context.Context, jreg *obs.Registry, requestID, query string, system []byte) (*serve.JobStatusDoc, string, error) {
	jreg.Counter(obs.CtrClusterUnits).Inc()
	t0 := time.Now()
	defer func() { jreg.Histogram(obs.HstClusterUnitSecs).ObserveSince(t0) }()

	// At most two attempts run at once (one and its single duplicate),
	// so every attempt still running when runUnit returns can send its
	// answer without blocking.
	results := make(chan attempt, 2)
	running := map[string]bool{}

	start := func(ws *workerState) {
		running[ws.name] = true
		go func() {
			doc, err := c.solve(ctx, ws.url, requestID, query, system)
			c.reg.release(ws)
			results <- attempt{doc: doc, err: err, ws: ws}
		}()
	}

	ws, err := c.lease(ctx, running)
	if err != nil {
		return nil, "", err
	}
	start(ws)

	tick := time.NewTicker(c.opts.ProbeInterval)
	defer tick.Stop()
	stolen := false
	for {
		select {
		case <-ctx.Done():
			return nil, "", ctx.Err()
		case a := <-results:
			delete(running, a.ws.name)
			if a.err == nil {
				return a.doc, a.ws.name, nil
			}
			jreg.Counter(obs.CtrClusterUnitErrors).Inc()
			if !retryable(a.err) {
				return nil, "", a.err
			}
			// Eject the worker now (the prober readmits it when /readyz
			// answers again) and reassign if this was the unit's only
			// running attempt.
			if c.reg.markDown(a.ws) {
				c.own.Counter(obs.CtrClusterEjections).Inc()
				c.own.Gauge(obs.GagClusterWorkers).Set(int64(c.reg.healthyCount()))
			}
			if len(running) == 0 {
				jreg.Counter(obs.CtrClusterReassigned).Inc()
				ws, err := c.lease(ctx, running)
				if err != nil {
					return nil, "", err
				}
				start(ws)
			}
		case <-tick.C:
			// Straggler: every running attempt sits on an ejected worker.
			// Duplicate the unit on a healthy one, at most once per unit;
			// the first answer wins.
			if stolen || c.reg.anyHealthy(running) {
				continue
			}
			if ws := c.reg.pick(running); ws != nil {
				stolen = true
				jreg.Counter(obs.CtrClusterSteals).Inc()
				start(ws)
			}
		}
	}
}

// solve posts one unit attempt to the worker at baseURL and returns the
// job document it answers with: done, interrupted or failed. A worker's
// error envelope is returned as a *refusal; any other error is a
// transport failure or an answer that does not parse.
func (c *Coordinator) solve(ctx context.Context, baseURL, requestID, query string, system []byte) (*serve.JobStatusDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/solve?"+query, bytes.NewReader(system))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Incdes-Request-Id", requestID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBytes))
	if err != nil {
		return nil, err
	}
	var env serve.ErrorDoc
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		return nil, &refusal{code: env.Error.Code, msg: env.Error.Message}
	}
	var doc serve.JobStatusDoc
	if (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusUnprocessableEntity) &&
		json.Unmarshal(raw, &doc) == nil && doc.Status != "" {
		return &doc, nil
	}
	return nil, fmt.Errorf("cluster: worker answered %d without a job document", resp.StatusCode)
}

// lease blocks until a schedulable worker outside exclude is available.
func (c *Coordinator) lease(ctx context.Context, exclude map[string]bool) (*workerState, error) {
	for {
		if ws := c.reg.pick(exclude); ws != nil {
			return ws, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func unitRequestID(requestID string, idx int) string {
	if requestID == "" {
		return ""
	}
	return fmt.Sprintf("%s/u%d", requestID, idx)
}

// foldResults folds unit outcomes into the solve's single solution
// document through core.Reduce, so winner selection and error precedence
// are the local strategies' own. Attempt failures come first, in unit
// order: they are coordinator infrastructure errors, not solve outcomes.
// The winning unit's document carries the combined evaluation count and
// interrupted flag. Returns the winning unit index.
func foldResults(plan core.UnitPlan, outs []outcome) (*serve.SolutionDoc, int, error) {
	results := make([]core.Outcome, len(outs))
	for i, o := range outs {
		switch {
		case o.err != nil:
			return nil, 0, o.err
		case o.doc.Status == serve.StatusFailed:
			results[i].Err = errors.New(o.doc.Error)
		case o.doc.Solution == nil:
			return nil, 0, fmt.Errorf("cluster: unit %d returned no document", i)
		default:
			d := o.doc.Solution
			results[i] = core.Outcome{Objective: d.Objective, Evaluations: d.Evaluations, Interrupted: d.Interrupted}
		}
	}
	winner, sum, err := core.Reduce(plan, results)
	if err != nil {
		return nil, 0, err
	}
	doc := *outs[winner].doc.Solution
	doc.Evaluations = sum.Evaluations
	doc.Interrupted = sum.Interrupted
	return &doc, winner, nil
}

// emitTrace records the deterministic cluster events into the job's SSE
// buffer: one cluster.unit event per unit in index order, then the
// decision. Worker names never appear here — the stream must not depend
// on scheduling.
func (c *Coordinator) emitTrace(t obs.Tracer, units []core.Unit, outs []outcome, doc *serve.SolutionDoc, winner int) {
	if t == nil {
		return
	}
	for i, u := range units {
		sol := outs[i].doc.Solution
		ev := obs.TraceEvent{
			Kind:     "cluster.unit",
			Strategy: u.Name,
			Chain:    i,
			Feasible: sol != nil,
		}
		if sol != nil {
			ev.Cost = sol.Objective
			ev.Evaluations = int64(sol.Evaluations)
		}
		t.Trace(ev)
	}
	t.Trace(obs.TraceEvent{
		Kind:        "decision",
		Strategy:    doc.Strategy,
		Chain:       winner,
		Cost:        doc.Objective,
		Evaluations: int64(doc.Evaluations),
	})
}

// MetricsExtra merges the fleet's metrics into the coordinator's
// /v1/metrics exposition: the coordinator's own fleet instruments under
// {worker="coordinator"}, each worker's GET /v1/stats snapshot under
// {worker="wN"}, and the fleet total under {worker="all"}, where
// counters and histograms merge and each gauge is the sum over the
// workers. The workers are asked concurrently, each for at most 2s
// (statsTimeout); a worker that does not answer in time is skipped.
func (c *Coordinator) MetricsExtra(col *promtext.Collection) {
	col.Add(map[string]string{"worker": "coordinator"}, c.own.Snapshot())
	workers := c.reg.list()
	snaps := make([]*obs.Snapshot, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
			defer cancel()
			snaps[i], _ = c.stats(ctx, w.url) // an unreachable worker has no row
		}()
	}
	wg.Wait()
	agg := obs.NewRegistry()
	gauges := map[string]int64{}
	for i, snap := range snaps {
		if snap == nil {
			continue
		}
		col.Add(map[string]string{"worker": workers[i].name}, *snap)
		agg.Merge(*snap)
		for name, v := range snap.Gauges {
			gauges[name] += v
		}
	}
	for name, v := range gauges {
		agg.Gauge(name).Set(v)
	}
	col.Add(map[string]string{"worker": "all"}, agg.Snapshot())
}

// stats fetches the worker's aggregate obs snapshot.
func (c *Coordinator) stats(ctx context.Context, baseURL string) (*obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: GET /v1/stats answered %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxAnswerBytes)).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
