package core

import (
	"context"
	"errors"
	"strconv"
	"time"

	"incdes/internal/metrics"
	"incdes/internal/obs"
)

// Strategy is one mapping strategy, runnable through Solve. The built-in
// strategies are AH, MH and SA (optionally configured via MHWith and
// SAWith); custom strategies can be implemented on top of the Engine's
// NewDesign/Evaluate/ForEach primitives, placing the design they choose
// on a clone of the problem's base for Solution.State, and inherit
// parallel evaluation, cancellation and observability for free.
type Strategy interface {
	// Name is the short tag recorded in Solution.Strategy.
	Name() string
	// Run maps the problem's current application. Implementations must
	// perform candidate evaluations through the engine, honor ctx by
	// returning their best-so-far solution (marked Interrupted) when it
	// is cancelled, and must not read wall-clock time — Solve measures
	// Elapsed around Run so results are pure functions of
	// (problem, options).
	Run(ctx context.Context, eng *Engine) (*Solution, error)
}

// Predefined strategies with the paper's default tuning.
var (
	// AH is the ad-hoc baseline: the initial mapping alone.
	AH Strategy = ahStrategy{}
	// MH is the mapping heuristic with DefaultMHOptions.
	MH Strategy = MHWith(MHOptions{})
	// SA is the annealing reference with DefaultSAOptions.
	SA Strategy = SAWith(DefaultSAOptions())
)

// MHWith returns the mapping heuristic configured with opts. Zero-valued
// tuning fields select the corresponding DefaultMHOptions value (see the
// MHOptions field docs); boolean ablation switches and SeedHints are used
// as given.
func MHWith(opts MHOptions) Strategy { return mhStrategy{opts: opts} }

// SAWith returns the annealing strategy configured with opts. Seed is
// used exactly as given (0 is a valid seed); the remaining zero values
// select the documented defaults (see the SAOptions field docs).
func SAWith(opts SAOptions) Strategy { return saStrategy{opts: opts} }

// Options configure one Solve call. The zero value of every field except
// Strategy is meaningful and documented on the field.
type Options struct {
	// Strategy selects the mapping strategy (required). Use AH, MH, SA,
	// or a configured MHWith/SAWith value.
	Strategy Strategy
	// Parallelism is the evaluation worker count: MH fans its
	// per-iteration candidate set across this many workers, SA its
	// restart chains. 0 uses one worker per CPU (GOMAXPROCS); 1 runs
	// strictly serially. Results are identical at every setting.
	Parallelism int
	// Baseline, when non-nil, is a pre-computed cache of the metric
	// inputs of the problem's frozen base schedule, exactly as built by
	// metrics.NewBaseline(p.Base, p.Profile, p.Weights); Solve then skips
	// rebuilding it. This is the saving a design session exploits when
	// several commits branch from one version: the slack analysis of the
	// shared base is paid once. The caller is responsible for the
	// baseline matching the problem — a stale or mismatched baseline
	// yields undefined reports.
	Baseline *metrics.Baseline
	// Observer, when non-nil, attaches the observability layer: its
	// Stats registry accumulates the engine, scheduler and bus counters
	// of the instrument catalog (see package obs) and its Tracer
	// collector receives the structured decision event stream, numbered
	// in emission order. nil disables the layer entirely; the hot path
	// then performs no observability work and no allocations, and the
	// solution is byte-identical either way — instruments never feed
	// back into strategy decisions.
	Observer *obs.Observer
}

// Solve runs a strategy on a problem: the single entry point behind
// which every strategy is parallel, cancellable and observable.
//
// When ctx is cancelled (deadline or Ctrl-C translated into a context),
// Solve returns the best solution found so far with Solution.Interrupted
// set and a nil error; only cancellation before any feasible design was
// evaluated returns the context's error. Solutions are deterministic:
// for a fixed problem and options, every parallelism level yields a
// byte-identical Report (cancellation timing excepted).
func Solve(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	if opts.Strategy == nil {
		return nil, errors.New("core: Options.Strategy is nil")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	eng := newEngine(p, opts)
	if reg := opts.Observer.Registry(); reg != nil {
		reg.Counter(obs.CtrSolves).Inc()
	}
	eng.tracer.Trace(obs.TraceEvent{Kind: "solve.start", Strategy: opts.Strategy.Name()})
	// The request-scoped "core.solve" span (free when the context carries
	// no trace) plus pprof labels so CPU profiles segment by request and
	// strategy; worker goroutines inherit the labels through ForEach.
	runCtx, span := obs.StartSpan(ctx, "core.solve")
	span.SetAttr("strategy", opts.Strategy.Name())
	var sol *Solution
	var err error
	eng.labelled(runCtx, func(ctx context.Context) { sol, err = opts.Strategy.Run(ctx, eng) },
		"incdes.request", obs.RequestIDFrom(ctx), "incdes.strategy", opts.Strategy.Name())
	if err != nil {
		span.End()
		return nil, err
	}
	sol.Elapsed = time.Since(start)
	sol.Evaluations = int(eng.Evaluations())
	span.SetAttr("evaluations", strconv.Itoa(sol.Evaluations))
	span.End()
	eng.tracer.Trace(obs.TraceEvent{
		Kind:        "solve.done",
		Strategy:    sol.Strategy,
		Cost:        sol.Report.Objective,
		Evaluations: int64(sol.Evaluations),
	})
	return sol, nil
}
