package core

import (
	"context"
	"errors"
	"runtime/pprof"
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
// under the Solve call's context and returns the winner.
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
// Solve of the winning strategy. Aggregate cross-lane work remains
// visible in the observer's counters (core.evaluations sums all lanes),
// and with tracing on each lane's full event stream is replayed in lane
// order followed by a portfolio.lane summary per lane (its evaluations,
// cost and feasibility) and the final decision event, whose chain is the
// winning lane.
func PortfolioWith(opts PortfolioOptions) Strategy { return portfolioStrategy{opts: opts} }

type portfolioStrategy struct{ opts PortfolioOptions }

func (portfolioStrategy) Name() string { return "portfolio" }

// laneResult is one lane's outcome plus its buffered trace.
type laneResult struct {
	sol    *Solution
	err    error
	evals  int64
	events []obs.TraceEvent
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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
			laneOpts := eng.opts
			laneOpts.Strategy = lane
			// Share the outer engine's baseline: the frozen base is one
			// and the same for every lane, and Baseline is read-only.
			laneOpts.Baseline = eng.baseline
			var col *obs.Collector
			if eng.observer != nil {
				if eng.Tracing() {
					col = &obs.Collector{}
				}
				laneOpts.Observer = &obs.Observer{Stats: eng.observer.Stats, Tracer: col}
			}
			laneEng := newEngine(eng.p, laneOpts)
			var sol *Solution
			var err error
			runLane := func(ctx context.Context) { sol, err = lane.Run(ctx, laneEng) }
			if eng.observer != nil {
				pprof.Do(laneCtxs[i], pprof.Labels("incdes.lane", strconv.Itoa(i)), runLane)
			} else {
				runLane(laneCtxs[i])
			}
			laneSpans[i].End()
			if sol != nil {
				// Lanes bypass Solve, so fill the counter Solve would have.
				sol.Evaluations = int(laneEng.Evaluations())
			}
			r := laneResult{sol: sol, err: err, evals: laneEng.Evaluations()}
			if col != nil {
				r.events = col.Events()
			}

			mu.Lock()
			results[i] = r
			switch {
			case err != nil && !isCtxErr(err):
				// Deterministic lane failure: no run of this race can
				// produce a solution, so stop burning the other lanes.
				cancelRace()
			case err == nil && sol != nil && !sol.Interrupted:
				natural[i] = true
				// Zero-objective shortcut: if the leading naturally-completed
				// prefix contains an objective-0 lane, no later lane can win
				// the (objective, index) tie-break.
				for z := 0; z < len(lanes) && natural[z]; z++ {
					if results[z].sol.Objective() == 0 {
						for j := z + 1; j < len(lanes); j++ {
							cancels[j]()
						}
						break
					}
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
		for i, r := range results {
			for _, ev := range r.events {
				eng.tracer.Trace(ev)
			}
			lane := obs.TraceEvent{
				Kind:        "portfolio.lane",
				Strategy:    names[i],
				Chain:       i,
				Evaluations: r.evals,
				Feasible:    r.err == nil && r.sol != nil,
			}
			if r.sol != nil {
				lane.Cost = r.sol.Objective()
			}
			eng.tracer.Trace(lane)
		}
	}

	win := results[winner].sol
	// The outer Solve reports the engine's counter; make it the winning
	// lane's so the returned Solution is byte-identical to a direct solve
	// of the winner (aggregate work stays in the registry).
	eng.evals.Store(results[winner].evals)
	eng.tracer.Trace(obs.TraceEvent{
		Kind:     "decision",
		Strategy: "portfolio",
		Chain:    winner,
		Cost:     win.Objective(),
	})
	return win, nil
}
