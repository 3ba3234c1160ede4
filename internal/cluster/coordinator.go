package cluster

// Coordinator: the serve.Dispatcher that executes core's work units of a
// solve on workers — leasing them, reassigning on failure, stealing
// stragglers — and folds the results with core.Reduce (see the package
// doc for the full argument).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// LeaseTimeout is how long a unit may go without a heartbeat before
	// a duplicate attempt is launched on another worker (default 3s).
	LeaseTimeout time.Duration
	// ProbeInterval is the /readyz health-probe cadence (default 1s).
	ProbeInterval time.Duration
}

// probeFailLimit ejects a worker after this many consecutive failed
// probes. The prober readmits it on the next success.
const probeFailLimit = 3

func (o Options) withDefaults() Options {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 3 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	return o
}

// Coordinator implements serve.Dispatcher over a worker fleet.
type Coordinator struct {
	opts Options
	reg  *registry
	// rpc carries all coordinator→worker traffic, probes included. Its
	// HTTP client has no global timeout: execute streams are long-lived,
	// and probes and snapshots bound themselves with context deadlines.
	rpc *client
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
		rpc:       &client{http: &http.Client{}},
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
// health state the placement logic uses.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	tick := time.NewTicker(c.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for _, w := range c.reg.list() {
				c.probe(ctx, w)
			}
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
	resp, err := c.rpc.http.Do(req)
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
	res    *ExecuteResult
	worker string
	err    error
}

// Dispatch shards, executes and reduces one solve. The units and the
// reduce are core's: the coordinator plans from the same strategy value
// a local solve runs and only executes the units remotely.
//
// A job deadline ends a dispatched solve the way it ends a local one,
// with the best design found so far: every unit gets the time left as
// its own timeout, and the unit RPCs outlive the job deadline by one
// lease timeout to carry the workers' interrupted answers back. Only an
// explicit cancellation (DELETE, client disconnect, shutdown) stops the
// RPCs at once and fails the dispatch.
func (c *Coordinator) Dispatch(ctx context.Context, req *serve.DispatchRequest) (*serve.DispatchResult, error) {
	strat, err := req.Params.Resolve()
	if err != nil {
		return nil, err
	}
	params := req.Params
	rpcCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	if dl, ok := ctx.Deadline(); ok {
		params.Timeout = time.Until(dl)
		var cancelAfter context.CancelFunc
		rpcCtx, cancelAfter = context.WithDeadline(rpcCtx, dl.Add(c.opts.LeaseTimeout))
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
	system := json.RawMessage(buf.Bytes())

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
			res, worker, err := c.runUnit(rpcCtx, req.Registry, requestID, i, unitParams(params, units[i]).Query(), system)
			outs[i] = outcome{res: res, worker: worker, err: err}
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
		if rt != nil && outs[i].res != nil && len(outs[i].res.Spans) > 0 {
			rt.AttachRemote(spans[i], outs[i].res.Spans, map[string]string{"worker": outs[i].worker})
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
	res *ExecuteResult
	err error
	ws  *workerState
}

// runUnit executes one unit with lease-based retry and work stealing.
// Duplicated or reassigned attempts are safe: every attempt of one unit
// computes the identical result, so the first answer wins.
func (c *Coordinator) runUnit(ctx context.Context, jreg *obs.Registry, requestID string, idx int, query string, system json.RawMessage) (*ExecuteResult, string, error) {
	jreg.Counter(obs.CtrClusterUnits).Inc()
	t0 := time.Now()
	defer func() { jreg.Histogram(obs.HstClusterUnitSecs).ObserveSince(t0) }()

	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	results := make(chan attempt, 8)
	running := map[string]bool{}
	inflight := 0

	start := func(ws *workerState) {
		inflight++
		running[ws.name] = true
		go func() {
			params := ExecuteParams{
				RequestID: unitRequestID(requestID, idx),
				Unit:      idx,
				Query:     query,
				System:    system,
			}
			res, err := c.rpc.execute(ctx, ws.url, params, func() {
				lastBeat.Store(time.Now().UnixNano())
			})
			c.reg.release(ws)
			results <- attempt{res: res, err: err, ws: ws}
		}()
	}

	ws, err := c.lease(ctx, running)
	if err != nil {
		return nil, "", err
	}
	start(ws)

	leaseTick := time.NewTicker(c.opts.LeaseTimeout / 4)
	defer leaseTick.Stop()
	stolen := false
	for {
		select {
		case <-ctx.Done():
			return nil, "", ctx.Err()
		case a := <-results:
			inflight--
			delete(running, a.ws.name)
			if a.err == nil {
				return a.res, a.ws.name, nil
			}
			jreg.Counter(obs.CtrClusterRPCErrors).Inc()
			if !retryable(a.err) {
				return nil, "", a.err
			}
			// Transport-level loss: eject the worker now (the prober
			// readmits it when /readyz answers again) and reassign if
			// this was the unit's only live attempt.
			if c.reg.markDown(a.ws) {
				c.own.Counter(obs.CtrClusterEjections).Inc()
				c.own.Gauge(obs.GagClusterWorkers).Set(int64(c.reg.healthyCount()))
			}
			if inflight == 0 {
				jreg.Counter(obs.CtrClusterReassigned).Inc()
				ws, err := c.lease(ctx, running)
				if err != nil {
					return nil, "", err
				}
				lastBeat.Store(time.Now().UnixNano())
				start(ws)
			}
		case <-leaseTick.C:
			if stolen || inflight == 0 {
				continue
			}
			if time.Duration(time.Now().UnixNano()-lastBeat.Load()) < c.opts.LeaseTimeout {
				continue
			}
			// Straggler: duplicate the unit on another worker (at most
			// once per unit); first answer wins.
			if ws := c.reg.pick(running); ws != nil {
				stolen = true
				jreg.Counter(obs.CtrClusterSteals).Inc()
				start(ws)
			}
		}
	}
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
// are the local strategies' own. RPC-level failures come first, in unit order:
// they are coordinator infrastructure errors, not solve outcomes. The
// winning unit's document carries the combined evaluation count and
// interrupted flag. Returns the winning unit index.
func foldResults(plan core.UnitPlan, outs []outcome) (*serve.SolutionDoc, int, error) {
	results := make([]core.Outcome, len(outs))
	for i, o := range outs {
		switch {
		case o.err != nil:
			return nil, 0, o.err
		case o.res != nil && o.res.Status == serve.StatusFailed:
			results[i].Err = errors.New(o.res.Error)
		case o.res == nil || o.res.Doc == nil:
			return nil, 0, fmt.Errorf("cluster: unit %d returned no document", i)
		default:
			d := o.res.Doc
			results[i] = core.Outcome{Objective: d.Objective, Evaluations: d.Evaluations, Interrupted: d.Interrupted}
		}
	}
	winner, sum, err := core.Reduce(plan, results)
	if err != nil {
		return nil, 0, err
	}
	doc := *outs[winner].res.Doc
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
		ev := obs.TraceEvent{
			Kind:     "cluster.unit",
			Strategy: u.Name,
			Chain:    i,
			Feasible: outs[i].res != nil && outs[i].res.Doc != nil,
		}
		if outs[i].res != nil && outs[i].res.Doc != nil {
			ev.Cost = outs[i].res.Doc.Objective
			ev.Evaluations = int64(outs[i].res.Doc.Evaluations)
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
// {worker="coordinator"}, each worker's aggregate snapshot under
// {worker="wN"}, and the cross-fleet merge under {worker="all"}.
// Unreachable workers are skipped — the exposition must not block on a
// dead node.
func (c *Coordinator) MetricsExtra(col *promtext.Collection) {
	col.Add(map[string]string{"worker": "coordinator"}, c.own.Snapshot())
	agg := obs.NewRegistry()
	for _, w := range c.reg.list() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		snap, err := c.rpc.snapshot(ctx, w.url)
		cancel()
		if err != nil {
			continue
		}
		col.Add(map[string]string{"worker": w.name}, *snap)
		agg.Merge(*snap)
	}
	col.Add(map[string]string{"worker": "all"}, agg.Snapshot())
}
