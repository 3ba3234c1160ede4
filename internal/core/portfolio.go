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
// run of the Solve's one engine (see Engine), with an evaluation counter
// and a trace sink of its own: the lanes share the job order, the
// evaluation workers' contexts, the baseline and the instruments.
//
// Determinism rule: the race is decided by Reduce's lane rule, the one a
// dispatched portfolio is folded by. When lane z is the first to score 0
// and lanes 0..z all completed naturally (no error, not interrupted),
// lanes 0..z decide the race and the lanes above z are cut; otherwise
// every lane decides it. Among the deciding lanes the lowest-index
// non-context error fails the race, else the lane with the lowest
// (objective, lane index) wins. So for a fixed problem and options the
// result is byte-identical across runs and parallelism levels, exactly
// like the individual strategies (cancellation timing excepted). Losers
// are NOT cancelled on first completion: whether a still-running lane
// could have won is unknowable, so racing-to-cancel would make the
// result depend on scheduling. A lane is cancelled early only when it
// can no longer change the result:
//
//   - it is above lane z: whatever it reports is cut;
//   - it is above a lane that failed with a non-context error: that
//     error, a lower lane's error or lane z's solution decides the race,
//     whatever the lanes above report;
//   - the caller's context expires — every unfinished lane winds down
//     to its best-so-far (marked Interrupted) and the best at deadline
//     wins.
//
// The winning lane's Solution is returned as-is: Strategy carries the
// winner's own tag ("AH", "MH", "SA"), and Evaluations counts the
// winner's lane only, so the result is byte-identical to a direct
// Solve of the winning strategy. With tracing on, each deciding lane's
// event stream is replayed in lane order, followed by a portfolio.lane
// summary (its evaluations, cost and feasibility), then the final
// decision event, whose chain is the winning lane. A cut lane may have
// finished before lane z did or not, and how far it ran depends on
// timing, so none of its events are replayed and its summary carries
// only its strategy, its lane index in chain and the note "cut". z does
// not depend on timing, so neither does the trace. The observer's
// registry counters (core.evaluations, the scheduler's and the bus's)
// still count every lane's real work, the cut lanes' included, like the
// timings in a job's stats.
func PortfolioWith(opts PortfolioOptions) Strategy { return portfolioStrategy{opts: opts} }

type portfolioStrategy struct{ opts PortfolioOptions }

func (portfolioStrategy) Name() string { return "portfolio" }

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s portfolioStrategy) Run(ctx context.Context, eng *Engine) (*Solution, error) {
	lanes := s.opts.lanes()
	names := make([]string, len(lanes))
	runs := make([]*Engine, len(lanes))
	laneCtxs := make([]context.Context, len(lanes))
	cancels := make([]context.CancelFunc, len(lanes))
	// outs[i] is lane i's outcome once the lane has finished. Until then
	// it is marked interrupted: a lane still running has not completed
	// naturally.
	outs := make([]Outcome, len(lanes))
	// Lane spans are opened here, in the sequential pre-launch loop, so
	// their IDs and order are deterministic regardless of how the lane
	// goroutines interleave; only End (the duration) happens in the lane.
	laneSpans := make([]*obs.Span, len(lanes))
	for i := range lanes {
		names[i], runs[i], outs[i].Interrupted = lanes[i].Name(), eng.run(), true
		laneCtxs[i], cancels[i] = context.WithCancel(ctx)
		defer cancels[i]()
		_, laneSpans[i] = obs.StartSpan(ctx, "portfolio.lane")
		laneSpans[i].SetAttr("lane", strconv.Itoa(i))
		laneSpans[i].SetAttr("strategy", names[i])
	}

	sols := make([]*Solution, len(lanes))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sol *Solution
			var err error
			eng.labelled(laneCtxs[i], func(ctx context.Context) { sol, err = lanes[i].Run(ctx, runs[i]) },
				"incdes.lane", strconv.Itoa(i))
			laneSpans[i].End()
			o := Outcome{Err: err}
			if sol != nil {
				// Lanes bypass Solve, so fill the counter Solve would have.
				sol.Evaluations = int(runs[i].Evaluations())
				o.Objective, o.Interrupted = sol.Objective(), sol.Interrupted
			}

			mu.Lock()
			defer mu.Unlock()
			sols[i], outs[i] = sol, o
			// Cancel the lanes that can no longer change the result.
			from := decided(outs)
			if err != nil && !isCtxErr(err) {
				from = min(from, i+1)
			}
			for _, cancel := range cancels[from:] {
				cancel()
			}
		}(i)
	}
	wg.Wait()

	winner, err := reduceLanes(names, outs)
	if err != nil {
		return nil, err
	}
	cut := decided(outs)
	for i, run := range runs {
		lane := obs.TraceEvent{Kind: "portfolio.lane", Strategy: names[i], Chain: i}
		if i < cut {
			eng.replay(run)
			lane.Evaluations, lane.Cost = run.Evaluations(), outs[i].Objective
			lane.Feasible = outs[i].Err == nil && sols[i] != nil
		} else {
			lane.Note = "cut"
		}
		eng.tracer.Trace(lane)
	}

	win := sols[winner]
	// The outer Solve reports its run's counter; make it the winning
	// lane's so the returned Solution is byte-identical to a direct solve
	// of the winner (aggregate work stays in the registry).
	eng.evals.Store(runs[winner].Evaluations())
	eng.tracer.Trace(obs.TraceEvent{
		Kind:     "decision",
		Strategy: "portfolio",
		Chain:    winner,
		Cost:     win.Objective(),
	})
	return win, nil
}
