// Package core implements the paper's contribution: mapping and
// scheduling strategies for the incremental design process. Given a
// system whose existing applications are frozen in the schedule, a
// current application to place, and a characterization of the future
// applications, each strategy produces a mapping and schedule of the
// current application that
//
//	(a) meets every deadline without touching the existing applications
//	    (guaranteed by construction: strategies only add to a clone of
//	    the frozen base schedule), and
//	(b) scores well on the future-accommodation objective C of package
//	    metrics.
//
// Three strategies are provided, exactly as evaluated in the paper:
//
//   - AH: the initial mapping alone — the Heterogeneous Critical Path
//     list mapper optimizing only for performance. The baseline with
//     "little support for incremental design".
//   - MH: iterative improvement that examines only the design
//     transformations with the highest potential — moving a process into
//     a different slack on the same or a different processor, or moving
//     a message into a different slack on the bus.
//   - SA: simulated annealing over the same move set, run long enough to
//     serve as the near-optimal reference.
//
// All strategies run through the single entry point Solve, which adds
// parallel candidate evaluation, context cancellation with best-so-far
// results, and observability:
//
//	sol, err := core.Solve(ctx, p, core.Options{Strategy: core.MH, Parallelism: 4})
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
)

// ErrUnschedulable is wrapped by strategies when the current application
// admits no valid design under the frozen existing schedule.
var ErrUnschedulable = errors.New("core: current application is unschedulable")

// Problem is one incremental mapping instance.
type Problem struct {
	Sys     *model.System
	Base    *sched.State // existing applications, scheduled and frozen
	Current *model.Application
	Profile *future.Profile
	Weights metrics.Weights
}

// NewProblem validates and assembles a problem instance. The base state
// must have been built over sys (same hyperperiod); current must be one of
// sys.Apps and not already scheduled in base.
func NewProblem(sys *model.System, base *sched.State, current *model.Application,
	prof *future.Profile, w metrics.Weights) (*Problem, error) {

	if base.System() != sys {
		return nil, fmt.Errorf("core: base schedule belongs to a different system")
	}
	found := false
	for _, a := range sys.Apps {
		if a == current {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: current application %q is not part of the system", current.Name)
	}
	for _, e := range base.ProcEntries() {
		if e.App == current.ID {
			return nil, fmt.Errorf("core: process %d of the current application is already in the base schedule", e.Proc)
		}
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &Problem{Sys: sys, Base: base, Current: current, Profile: prof, Weights: w}, nil
}

// Solution is the outcome of one strategy run.
type Solution struct {
	Strategy string
	Mapping  model.Mapping
	Hints    sched.Hints
	State    *sched.State // base + current, scheduled
	Report   metrics.Report
	Elapsed  time.Duration
	// Evaluations counts the design alternatives examined; it is the
	// strategy's cost measure alongside Elapsed. Each one is a
	// re-placement of the current application (from the first job the
	// alternative changes) plus a metric evaluation, except an SA draw
	// that reproduces its chain's current design: that design's score is
	// known, so the draw is counted, not evaluated.
	Evaluations int
	// Interrupted reports that the Solve context was cancelled and the
	// solution is the best design found up to that point rather than the
	// strategy's natural result.
	Interrupted bool
}

// Objective returns the solution's objective value C.
func (s *Solution) Objective() float64 { return s.Report.Objective }

// initial runs the Heterogeneous Critical Path initial mapping (IM) and
// returns the resulting design decisions and state.
func (p *Problem) initial(hints sched.Hints) (model.Mapping, *sched.State, error) {
	st := p.Base.Clone()
	mapping, err := st.MapApp(p.Current, hints)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrUnschedulable, err)
	}
	return mapping, st, nil
}

// ahStrategy is the AH baseline: construct the initial mapping and stop.
// It optimizes the current application's finish times and ignores the
// future.
type ahStrategy struct{}

func (ahStrategy) Name() string { return "AH" }

func (ahStrategy) Run(ctx context.Context, eng *Engine) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := eng.Problem()
	mapping, st, err := p.initial(sched.Hints{})
	if err != nil {
		return nil, err
	}
	eng.count(1)
	rep := metrics.Evaluate(st, p.Profile, p.Weights)
	eng.tracer.Trace(obs.TraceEvent{Kind: "init", Strategy: "AH", Cost: rep.Objective})
	eng.tracer.Trace(obs.TraceEvent{Kind: "decision", Strategy: "AH", Cost: rep.Objective})
	return &Solution{
		Strategy: "AH",
		Mapping:  mapping,
		Hints:    sched.Hints{},
		State:    st,
		Report:   rep,
	}, nil
}
