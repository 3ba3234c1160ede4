package core

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"incdes/internal/obs"
)

// PortfolioOptions configure the strategy-portfolio racer.
type PortfolioOptions struct {
	// Lanes are the strategies to race, in priority order: ties on the
	// objective go to the lowest lane index. nil selects [AH, MH, SA].
	Lanes []Strategy
}

// lanes resolves the nil default.
func (o PortfolioOptions) lanes() []Strategy {
	if len(o.Lanes) == 0 {
		return []Strategy{AH, MH, SA}
	}
	return o.Lanes
}

// PortfolioWith returns a strategy that races opts.Lanes concurrently
// under the Solve call's context and returns the winner. Each lane is a
// run of the Solve's one engine, with an evaluation counter and a trace
// sink of its own: the lanes share the job order, the evaluation workers'
// contexts, the baseline and the instruments.
//
// Determinism rule: the winner is the error-free lane with the lowest
// (objective, lane index) — so for a fixed problem and options the
// returned solution is byte-identical across runs and parallelism
// levels, exactly like the individual strategies (cancellation timing
// excepted). Losers are NOT cancelled on first completion: whether a
// still-running lane could have won is unknowable, so racing-to-cancel
// would make the result depend on scheduling. Lanes are cancelled early
// only when it is provably safe:
//
//   - a lane fails with a non-context error — the race cannot return a
//     solution anyway (lane errors are deterministic, so every run
//     fails identically), and Run reports the lowest-index such error;
//   - the zero-objective shortcut: when lanes 0..z have all run to
//     natural completion and lane z's objective is 0, no lane above z
//     can beat the (objective, index) tie-break, so the rest are
//     cancelled without affecting the result;
//   - the caller's context expires — every unfinished lane winds down
//     to its best-so-far (marked Interrupted) and the best at deadline
//     wins.
//
// The winning lane's Solution is returned as-is: Strategy carries the
// winner's own tag ("AH", "MH", "SA"), and Evaluations counts the
// winner's lane only, so the result is byte-identical to a direct
// Solve of the winning strategy. With tracing on, each lane's event
// stream is replayed in lane order, followed by a portfolio.lane summary
// (its evaluations, cost and feasibility), then the final decision
// event, whose chain is the winning lane. When the zero-objective
// shortcut applies, with z its lowest lane, the lanes above z are cut,
// whether or not they finished before lane z did: how far a cut lane ran
// depends on timing, so none of its events are replayed and its summary
// carries only its strategy, its lane index in chain and the note "cut".
// z does not depend on timing, so neither does the trace. The observer's
// registry counters (core.evaluations, the scheduler's and the bus's)
// still count every lane's real work, the cut lanes' included, like the
// timings in a job's stats.
func PortfolioWith(opts PortfolioOptions) Strategy { return portfolioStrategy{opts: opts} }

type portfolioStrategy struct{ opts PortfolioOptions }

func (portfolioStrategy) Name() string { return "portfolio" }

// laneResult is one lane's outcome and its run of the engine, which
// holds the lane's evaluation count and buffered trace.
type laneResult struct {
	sol *Solution
	err error
	run *Engine
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// decided returns how many lanes decide the race: z+1 when lane z is the
// first to score 0 and lanes 0..z all ran to natural completion, else
// every lane. The lanes above z are cut.
func decided(natural []bool, results []laneResult) int {
	for z := 0; z < len(natural) && natural[z]; z++ {
		if results[z].sol.Objective() == 0 {
			return z + 1
		}
	}
	return len(natural)
}

func (s portfolioStrategy) Run(ctx context.Context, eng *Engine) (*Solution, error) {
	lanes := s.opts.lanes()

	raceCtx, cancelRace := context.WithCancel(ctx)
	defer cancelRace()
	cancels := make([]context.CancelFunc, len(lanes))
	laneCtxs := make([]context.Context, len(lanes))
	// Lane spans are opened here, in the sequential pre-launch loop, so
	// their IDs and order are deterministic regardless of how the lane
	// goroutines interleave; only End (the duration) happens in the lane.
	laneSpans := make([]*obs.Span, len(lanes))
	names := make([]string, len(lanes))
	for i := range lanes {
		names[i] = lanes[i].Name()
		laneCtxs[i], cancels[i] = context.WithCancel(raceCtx)
		defer cancels[i]()
		_, laneSpans[i] = obs.StartSpan(ctx, "portfolio.lane")
		laneSpans[i].SetAttr("lane", strconv.Itoa(i))
		laneSpans[i].SetAttr("strategy", names[i])
	}

	results := make([]laneResult, len(lanes))
	// natural marks lanes that ran to completion uninterrupted; the
	// zero-objective shortcut below needs to know the completed prefix.
	natural := make([]bool, len(lanes))
	var mu sync.Mutex

	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(i int, lane Strategy) {
			defer wg.Done()
			r := laneResult{run: &Engine{shared: eng.shared}}
			if eng.Tracing() {
				r.run.tracer = &obs.Collector{}
			}
			eng.labelled(laneCtxs[i], func(ctx context.Context) { r.sol, r.err = lane.Run(ctx, r.run) },
				"incdes.lane", strconv.Itoa(i))
			laneSpans[i].End()
			if r.sol != nil {
				// Lanes bypass Solve, so fill the counter Solve would have.
				r.sol.Evaluations = int(r.run.Evaluations())
			}

			mu.Lock()
			results[i] = r
			switch {
			case r.err != nil && !isCtxErr(r.err):
				// Deterministic lane failure: no run of this race can
				// produce a solution, so stop burning the other lanes.
				cancelRace()
			case r.err == nil && r.sol != nil && !r.sol.Interrupted:
				natural[i] = true
				// Zero-objective shortcut: no lane above a zero-objective
				// lane that ends a naturally-completed prefix can win the
				// (objective, index) tie-break.
				for j := decided(natural, results); j < len(lanes); j++ {
					cancels[j]()
				}
			}
			mu.Unlock()
		}(i, lanes[i])
	}
	wg.Wait()

	// Reduce by the lane rule (see Reduce): the lowest-index
	// deterministic lane error beats any solution, else the lowest
	// (objective, lane) wins.
	outs := make([]Outcome, len(results))
	for i, r := range results {
		outs[i].Err = r.err
		if r.sol != nil {
			outs[i].Objective = r.sol.Objective()
		}
	}
	winner, err := reduceLanes(names, outs)
	if err != nil {
		return nil, err
	}

	if eng.Tracing() {
		cut := decided(natural, results)
		for i, r := range results {
			lane := obs.TraceEvent{Kind: "portfolio.lane", Strategy: names[i], Chain: i}
			if i >= cut {
				lane.Note = "cut"
				eng.tracer.Trace(lane)
				continue
			}
			for _, ev := range r.run.tracer.Events() {
				eng.tracer.Trace(ev)
			}
			lane.Evaluations = r.run.Evaluations()
			lane.Feasible = r.err == nil && r.sol != nil
			if r.sol != nil {
				lane.Cost = r.sol.Objective()
			}
			eng.tracer.Trace(lane)
		}
	}

	win := results[winner].sol
	// The outer Solve reports its run's counter; make it the winning
	// lane's so the returned Solution is byte-identical to a direct solve
	// of the winner (aggregate work stays in the registry).
	eng.evals.Store(results[winner].run.Evaluations())
	eng.tracer.Trace(obs.TraceEvent{
		Kind:     "decision",
		Strategy: "portfolio",
		Chain:    winner,
		Cost:     win.Objective(),
	})
	return win, nil
}
