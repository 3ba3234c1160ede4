package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
	"incdes/internal/ttp"
)

// Engine is the evaluation machinery behind Solve: a bounded worker
// pool over cloned scheduler states and the cancellation plumbing.
// Strategies receive it in Run and perform every candidate evaluation
// through it, which is what makes them parallel, cancellable, and
// observable without owning any of that logic themselves. A built-in
// strategy run places its own designs on one incumbent (initial), which
// becomes the solution's state.
//
// Solve builds one engine per call. A strategy run owns only its
// evaluation counter and its trace sink; everything else is shared by
// every run of the Solve. A run that goes on concurrently with others,
// a portfolio lane (see PortfolioWith) or an SA restart chain, is a run
// of the same engine with a counter and a sink of its own (run): only
// the goroutine running it writes to them, and its parent replays the
// finished runs into its own in index order (replay).
//
// An Engine is safe for concurrent use by the workers it spawns. Results
// are deterministic by construction: evaluation is a pure function of
// (problem, design, move), whatever design a worker held before, so
// the worker count cannot change what a strategy computes — only how
// fast.
type Engine struct {
	*shared

	evals atomic.Int64
	// tracer is the run's trace sink, nil when tracing is off.
	// Strategies trace only from deterministic serialization points,
	// never concurrently from workers, so the event stream is identical
	// at every parallelism level.
	tracer *obs.Collector
}

// shared is what every run of one Solve shares.
type shared struct {
	p           *Problem
	parallelism int

	// ord is the Solve's one job order of the current application, which
	// every Design is a vector over (ordErr when the application has
	// none); read-only.
	ord    *sched.Order
	ordErr error

	// scratch holds worker-local evaluation contexts reused across
	// evaluations, so a warm evaluation allocates nothing. Each context
	// owns a private copy of the frozen base, made once, with a
	// transaction open on it that holds the design evaluated last.
	scratch sync.Pool

	// baseline is the shared read-only metric-input cache behind the
	// transactional evaluation.
	baseline *metrics.Baseline

	// Observability (see package obs). The instruments are resolved once
	// here and called unconditionally on the hot path; with no registry
	// every one of them is a nil no-op, so the layer costs one nil check
	// per event — "free when off". observed says an observer is
	// attached, which puts the runs and their workers under pprof
	// labels.
	observed    bool
	cEvals      *obs.Counter
	cMisses     *obs.Counter
	cInfeasible *obs.Counter
	schedStats  sched.Stats
	ttpStats    ttp.Stats
}

// newEngine assembles the engine of one Solve call and returns its
// strategy's run. Parallelism may still carry its documented zero value,
// which is resolved here.
func newEngine(p *Problem, opts Options) *Engine {
	s := &shared{
		p:           p,
		parallelism: opts.Parallelism,
		baseline:    opts.Baseline,
		observed:    opts.Observer != nil,
	}
	s.ord, s.ordErr = p.Base.Order(p.Current)
	if s.baseline == nil {
		s.baseline = metrics.NewBaseline(p.Base, p.Profile, p.Weights)
	}
	if s.parallelism <= 0 {
		s.parallelism = runtime.GOMAXPROCS(0)
	}
	// A nil registry resolves every instrument to nil.
	reg := opts.Observer.Registry()
	s.cEvals = reg.Counter(obs.CtrEvaluations)
	s.cMisses = reg.Counter(obs.CtrCacheMisses)
	s.cInfeasible = reg.Counter(obs.CtrInfeasible)
	s.schedStats = sched.StatsFrom(reg)
	s.ttpStats = ttp.StatsFrom(reg)
	e := &Engine{shared: s}
	if opts.Observer != nil {
		e.tracer = opts.Observer.Tracer
	}
	return e
}

// labelled calls fn(ctx), under the pprof labels kv when an observer is
// attached, so CPU profiles segment by request, strategy, lane and
// worker; goroutines fn starts inherit the labels.
func (s *shared) labelled(ctx context.Context, fn func(context.Context), kv ...string) {
	if !s.observed {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(kv...), fn)
}

// run returns a new run of e's engine: an evaluation counter of its own
// and, when e is tracing, a collector of its own.
func (e *Engine) run() *Engine {
	r := &Engine{shared: e.shared}
	if e.Tracing() {
		r.tracer = &obs.Collector{}
	}
	return r
}

// replay adds a finished run's evaluations and trace events to e's.
// Callers replay their runs in index order once every run has finished,
// so e's count and trace do not depend on how the runs interleaved. The
// registry counted the run's work as it happened.
func (e *Engine) replay(r *Engine) {
	e.evals.Add(r.Evaluations())
	for _, ev := range r.tracer.Events() {
		e.tracer.Trace(ev)
	}
}

// Problem returns the problem instance being solved.
func (e *Engine) Problem() *Problem { return e.p }

// Evaluations returns the number of design alternatives this run has
// examined so far.
func (e *Engine) Evaluations() int64 { return e.evals.Load() }

// Tracing reports whether a trace sink is attached, so emitters can skip
// building events entirely when tracing is off.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// count records n examined design alternatives that did not pass through
// Evaluate: the initial mapping, and SA draws that reproduce the chain's
// current design.
func (e *Engine) count(n int64) {
	e.evals.Add(n)
	e.cEvals.Add(n)
}

// Design is one design alternative of the current application: a node
// and a start hint per process and a start hint per message, dense over
// the Solve's one job order (see sched.Design). A strategy builds its
// first with NewDesign and the next ones with With; a Design never
// changes once built, which is what lets an evaluation worker tell by
// identity that a candidate is a move over the design it placed last.
type Design = sched.Design

// NewDesign returns the design (mapping, hints) of the current
// application over the Solve's job order. Hints outside the current
// application, or of 0 or less, decide nothing and are not kept
// (sched.Order.Design).
func (e *Engine) NewDesign(mapping model.Mapping, hints sched.Hints) (*Design, error) {
	if e.ordErr != nil {
		return nil, e.ordErr
	}
	return e.ord.Design(mapping, hints), nil
}

// evalScratch is one worker-local evaluation context. st is the
// worker's private schedule state, a copy of the frozen base made once at
// context creation, and txn the transaction kept open on it with the
// design evaluated last placed: incumbent with move over it. inc is the
// worker's incremental metrics evaluator.
type evalScratch struct {
	st        *sched.State
	txn       *sched.Txn
	inc       *metrics.Incremental
	incumbent *Design
	move      sched.Move
}

// Evaluate schedules the current application as design d with move mv
// applied over it (the zero Move evaluates d itself) on a worker-local
// copy of the frozen base and scores the result. It reports ok=false
// when the design is infeasible (requirement (a) rules it out). Safe for
// concurrent use; d must not change while the engine is in use.
//
// Each worker keeps its transaction open with the design it evaluated
// last placed, and re-places only from the first job the candidate
// decides differently: over the same incumbent, the first job either
// move reaches; over another design, the first job where the records
// differ (sched.Txn.Replace). Nothing is rolled back between candidates.
// The candidate is then scored from the touched regions only. Reports
// are byte-identical to scheduling a clone of the base and scoring it
// with metrics.Evaluate (pinned by a differential test). A warm
// evaluation allocates nothing, with or without a stats registry (pinned
// by a test).
func (e *Engine) Evaluate(d *Design, mv sched.Move) (rep metrics.Report, ok bool) {
	e.evals.Add(1)
	e.cEvals.Inc()
	e.cMisses.Inc()
	scr, _ := e.scratch.Get().(*evalScratch)
	if scr == nil {
		scr = &evalScratch{st: e.p.Base.Clone(), inc: e.baseline.Evaluator()}
		// The base may carry instruments; a worker copy reports into this
		// Solve's registry only, and into nothing without one.
		scr.st.SetStats(e.schedStats)
		scr.st.SetBusStats(e.ttpStats)
		scr.txn = scr.st.Begin()
	}
	from := 0
	if scr.incumbent == d {
		from = min(d.Order().MoveJob(scr.move), d.Order().MoveJob(mv))
	}
	if err := scr.txn.Replace(from, d, mv); err == nil {
		rep, _ = scr.inc.EvaluateTxn(scr.st, scr.txn)
		ok = true
	} else {
		e.cInfeasible.Inc()
	}
	scr.incumbent, scr.move = d, mv
	e.scratch.Put(scr)
	return rep, ok
}

// incumbent is a strategy run's one placed design d, scored rep: a clone
// of the base, instrumented like the base, with a transaction open that
// holds d's placement and re-places each design the run accepts.
type incumbent struct {
	st  *sched.State
	txn *sched.Txn
	d   *Design
	rep metrics.Report
}

// initial returns a run's incumbent at the initial mapping IM with
// hints, over the Solve's job order, scored like every candidate. It
// counts as one evaluation.
func (e *Engine) initial(hints sched.Hints) (*incumbent, error) {
	seed, err := e.NewDesign(nil, hints)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnschedulable, err)
	}
	in := &incumbent{st: e.p.Base.Clone()}
	in.txn = in.st.Begin()
	if in.d, err = in.txn.Map(seed); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnschedulable, err)
	}
	e.count(1)
	in.rep, _ = e.baseline.Evaluator().EvaluateTxn(in.st, in.txn)
	return in, nil
}

// solution commits the incumbent's transaction, so its state keeps no
// placement record, and returns the incumbent as strategy's solution.
func (in *incumbent) solution(strategy string, interrupted bool) *Solution {
	in.txn.Commit()
	return &Solution{
		Strategy:    strategy,
		Mapping:     in.d.Mapping(),
		Hints:       in.d.Hints(),
		State:       in.st,
		Report:      in.rep,
		Interrupted: interrupted,
	}
}

// ForEach runs fn(0..n-1) across the engine's worker pool and returns
// when every started call has finished. Work is handed out dynamically;
// once ctx is cancelled no further indices are started (in-flight calls
// run to completion, so fn should check ctx itself when an item is
// long-running). No goroutines outlive the call.
//
// With an observer attached, each worker goroutine runs under pprof
// labels (incdes.worker=<index>) so CPU profiles attribute evaluation
// time to the pool.
func (e *Engine) ForEach(ctx context.Context, n int, fn func(i int)) {
	workers := e.parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work := func(ctx context.Context) {
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						break
					}
					fn(i)
				}
			}
			e.labelled(ctx, work, "incdes.worker", strconv.Itoa(w))
		}(w)
	}
	wg.Wait()
}
