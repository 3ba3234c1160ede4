package core

import (
	"context"
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

// Engine is the shared evaluation machinery behind Solve: a bounded worker
// pool over cloned scheduler states and the cancellation plumbing.
// Strategies receive one engine per Solve call and perform every
// candidate evaluation through it, which is what makes them parallel,
// cancellable, and observable without owning any of that logic
// themselves.
//
// An Engine is safe for concurrent use by the workers it spawns. Results
// are deterministic by construction: evaluation is a pure function of
// (problem, mapping, hints), so the worker count cannot change what a
// strategy computes — only how fast.
type Engine struct {
	p           *Problem
	parallelism int

	// opts is the resolved Options of the owning Solve call, kept so
	// composite strategies (the portfolio racer) can derive per-lane
	// option sets that inherit the caller's tuning.
	opts Options

	// scratch holds worker-local evaluation contexts reused across
	// evaluations, so a warm evaluation allocates nothing. Each context
	// owns a private copy of the frozen base, made once, that candidates
	// are applied to and rolled back from as transactions.
	scratch sync.Pool

	// baseline is the shared read-only metric-input cache behind the
	// transactional evaluation.
	baseline *metrics.Baseline

	evals atomic.Int64

	// Observability (see package obs). The instruments are resolved once
	// here and called unconditionally on the hot path; with no observer
	// attached every one of them, tracer included, is a nil no-op, so the
	// layer costs one nil check per event — "free when off". Strategies
	// trace only from deterministic serialization points, never
	// concurrently from workers, so the event stream is identical at
	// every parallelism level.
	observer    *obs.Observer
	tracer      *obs.Collector
	statsOn     bool
	cEvals      *obs.Counter
	cMisses     *obs.Counter
	cInfeasible *obs.Counter
	schedStats  sched.Stats
	ttpStats    ttp.Stats
}

// newEngine assembles the engine for one Solve call. opts must already be
// resolved (non-nil strategy; parallelism may still carry its documented
// zero value, which is resolved here).
func newEngine(p *Problem, opts Options) *Engine {
	e := &Engine{
		p:           p,
		parallelism: opts.Parallelism,
		opts:        opts,
		observer:    opts.Observer,
		baseline:    opts.Baseline,
	}
	if e.baseline == nil {
		e.baseline = metrics.NewBaseline(p.Base, p.Profile, p.Weights)
	}
	if e.parallelism <= 0 {
		e.parallelism = runtime.GOMAXPROCS(0)
	}
	reg := opts.Observer.Registry()
	if opts.Observer != nil {
		e.tracer = opts.Observer.Tracer
	}
	if reg != nil {
		e.statsOn = true
		e.cEvals = reg.Counter(obs.CtrEvaluations)
		e.cMisses = reg.Counter(obs.CtrCacheMisses)
		e.cInfeasible = reg.Counter(obs.CtrInfeasible)
		e.schedStats = sched.StatsFrom(reg)
		e.ttpStats = ttp.StatsFrom(reg)
	}
	return e
}

// Problem returns the problem instance being solved.
func (e *Engine) Problem() *Problem { return e.p }

// Evaluations returns the number of design alternatives examined so far.
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

// evalScratch is one worker-local evaluation context. st is the
// worker's private schedule state, a copy of the frozen base made once at
// context creation (candidates apply and roll back as transactions, so it
// equals the base between evaluations), and inc is the worker's
// incremental metrics evaluator.
type evalScratch struct {
	st  *sched.State
	inc *metrics.Incremental
}

// Evaluate schedules the current application with the given design
// decisions on a worker-local copy of the frozen base and scores the
// result. It reports ok=false when the design is infeasible (requirement
// (a) rules it out). Safe for concurrent use.
//
// The candidate is applied to the worker's base copy in a transaction,
// scored from the touched regions only, and rolled back in O(delta) by
// taking back the schedule-table entries it appended. Reports are
// byte-identical to scheduling a clone of the base and scoring it with
// metrics.Evaluate (pinned by a differential test). A warm evaluation
// allocates nothing, with or without a stats registry (pinned by a test).
func (e *Engine) Evaluate(mapping model.Mapping, hints sched.Hints) (rep metrics.Report, ok bool) {
	e.evals.Add(1)
	e.cEvals.Inc()
	e.cMisses.Inc()
	scr, _ := e.scratch.Get().(*evalScratch)
	if scr == nil {
		scr = &evalScratch{st: e.p.Base.Clone(), inc: e.baseline.Evaluator()}
		if e.statsOn {
			scr.st.SetStats(e.schedStats)
			scr.st.SetBusStats(e.ttpStats)
		} else {
			// The base may carry instruments; a worker copy must not
			// report into them unless this Solve's observer asked for it.
			scr.st.SetStats(sched.Stats{})
			scr.st.SetBusStats(ttp.Stats{})
		}
	}
	txn := scr.st.Begin()
	if err := txn.Apply(e.p.Current, mapping, hints); err == nil {
		rep, _ = scr.inc.EvaluateTxn(scr.st, txn)
		ok = true
	} else {
		e.cInfeasible.Inc()
	}
	txn.Rollback()
	e.scratch.Put(scr)
	return rep, ok
}

// Materialize rebuilds the full schedule state of a design alternative
// that Evaluate found feasible. Strategies call it once per accepted
// move, so the fan-out path never has to retain candidate states. It
// does not score the state: Evaluate's report for the alternative is
// its score.
func (e *Engine) Materialize(mapping model.Mapping, hints sched.Hints) (*sched.State, error) {
	st := e.p.Base.Clone()
	if err := st.ScheduleApp(e.p.Current, mapping, hints); err != nil {
		return nil, err
	}
	return st, nil
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
			if e.observer != nil {
				pprof.Do(ctx, pprof.Labels("incdes.worker", strconv.Itoa(w)), work)
			} else {
				work(ctx)
			}
		}(w)
	}
	wg.Wait()
}
