package core_test

import (
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/obs"
)

// hardProblem is testProblem with a future profile no mapping can fully
// satisfy, so every lane finishes with a nonzero objective and the
// portfolio's zero-objective shortcut never fires. Counter tests need
// that: the shortcut cancels trailing lanes, which would make the
// lane-done count depend on scheduling.
func hardProblem(t *testing.T, seed int64, existing, current int) *core.Problem {
	t.Helper()
	cfg := gen.Default()
	cfg.Nodes = 5
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 12
	tc, err := gen.MakeTestCase(cfg, seed, existing, current)
	if err != nil {
		t.Fatalf("MakeTestCase: %v", err)
	}
	prof := *tc.Profile
	prof.TNeed = prof.Tmin * 9 / 10 // nearly saturate every window
	prof.BNeedBytes *= 50
	p, err := core.NewProblem(tc.Sys, tc.Base, tc.Current, &prof, metrics.DefaultWeights(&prof))
	if err != nil {
		t.Fatalf("core.NewProblem: %v", err)
	}
	return p
}

// stateFP is the schedule's composite fingerprint, the byte-identity
// witness used across the determinism tests.
func stateFP(t *testing.T, sol *core.Solution) string {
	t.Helper()
	if sol == nil || sol.State == nil {
		t.Fatal("solution has no state")
	}
	sum := sol.State.Fingerprint()
	return hex.EncodeToString(sum[:])
}

// solutionIdentity is everything in a Solution that must be a pure
// function of (problem, options) — wall-clock Elapsed excluded.
type solutionIdentity struct {
	Strategy    string
	Evaluations int
	Interrupted bool
	Objective   float64
	StateFP     string
}

func identity(t *testing.T, sol *core.Solution) solutionIdentity {
	t.Helper()
	return solutionIdentity{
		Strategy:    sol.Strategy,
		Evaluations: sol.Evaluations,
		Interrupted: sol.Interrupted,
		Objective:   sol.Report.Objective,
		StateFP:     stateFP(t, sol),
	}
}

// TestPortfolioMatchesDirectSolveOfWinner pins the differential
// contract: the portfolio's result is byte-identical to a direct
// uncached Solve of whichever lane wins the (objective, index)
// tie-break.
func TestPortfolioMatchesDirectSolveOfWinner(t *testing.T) {
	p := testProblem(t, 11, 40, 20)
	sa := core.SAWith(core.SAOptions{Iterations: 400, Seed: 1})
	lanes := []core.Strategy{core.AH, core.MH, sa}

	var winner *core.Solution
	for _, lane := range lanes {
		sol, err := core.Solve(context.Background(), p, core.Options{Strategy: lane, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", lane.Name(), err)
		}
		if winner == nil || sol.Report.Objective < winner.Report.Objective {
			winner = sol
		}
	}

	port, err := core.Solve(context.Background(), p, core.Options{
		Strategy:    core.PortfolioWith(core.PortfolioOptions{Lanes: lanes}),
		Parallelism: 1,
	})
	if err != nil {
		t.Fatalf("portfolio: %v", err)
	}
	if got, want := identity(t, port), identity(t, winner); got != want {
		t.Errorf("portfolio result differs from direct solve of winner:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(port.Report, winner.Report) {
		t.Errorf("portfolio report differs from winner's:\n got %+v\nwant %+v", port.Report, winner.Report)
	}
	if !reflect.DeepEqual(port.Mapping, winner.Mapping) {
		t.Error("portfolio mapping differs from winner's")
	}
}

// TestPortfolioDeterministicAcrossParallelism pins the racer's core
// promise: identical results at evaluation parallelism 1 and 4, and
// across repeated runs.
func TestPortfolioDeterministicAcrossParallelism(t *testing.T) {
	p := testProblem(t, 12, 40, 20)
	strat := core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{
		core.AH, core.MH, core.SAWith(core.SAOptions{Iterations: 400, Seed: 1}),
	}})
	run := func(parallelism int) solutionIdentity {
		sol, err := core.Solve(context.Background(), p, core.Options{Strategy: strat, Parallelism: parallelism})
		if err != nil {
			t.Fatalf("portfolio at parallelism %d: %v", parallelism, err)
		}
		return identity(t, sol)
	}
	p1, p1b, p4, p4b := run(1), run(1), run(4), run(4)
	if p1 != p1b {
		t.Errorf("two parallelism-1 runs differ:\n%+v\n%+v", p1, p1b)
	}
	if p4 != p4b {
		t.Errorf("two parallelism-4 runs differ:\n%+v\n%+v", p4, p4b)
	}
	if p1 != p4 {
		t.Errorf("parallelism changes the portfolio result:\np1 %+v\np4 %+v", p1, p4)
	}
}

// laneSummaries returns a trace's portfolio.lane events in order and the
// winning lane named by the portfolio's decision event (-1 if none).
func laneSummaries(t *testing.T, events []obs.TraceEvent) ([]obs.TraceEvent, int) {
	t.Helper()
	var lanes []obs.TraceEvent
	winner, decisions := -1, 0
	for _, ev := range events {
		switch {
		case ev.Kind == "portfolio.lane":
			lanes = append(lanes, ev)
		case ev.Kind == "decision" && ev.Strategy == "portfolio":
			winner = ev.Chain
			decisions++
		}
	}
	if decisions != 1 {
		t.Errorf("trace has %d portfolio decisions, want 1", decisions)
	}
	return lanes, winner
}

// TestPortfolioObservability pins the race's observable surface: one
// portfolio.lane summary per lane, a decision naming the winning lane,
// a registry that sums every lane's evaluations, and a trace stream
// that replays to the reported objective.
func TestPortfolioObservability(t *testing.T) {
	p := hardProblem(t, 13, 30, 15)
	reg := obs.NewRegistry()
	col := &obs.Collector{}
	sol, err := core.Solve(context.Background(), p, core.Options{
		Strategy:    core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{core.AH, core.MH}}),
		Parallelism: 1,
		Observer:    &obs.Observer{Stats: reg, Tracer: col},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.CtrSolves]; got != 1 {
		t.Errorf("%s = %d, want 1 (lanes must not nest Solve)", obs.CtrSolves, got)
	}

	events := col.Events()
	lanes, winner := laneSummaries(t, events)
	if len(lanes) != 2 {
		t.Fatalf("trace has %d lane summaries, want 2", len(lanes))
	}
	var laneEvals int64
	for i, ev := range lanes {
		if ev.Chain != i || !ev.Feasible {
			t.Errorf("lane summary %d = %+v, want lane %d with a solution", i, ev, i)
		}
		laneEvals += ev.Evaluations
	}
	// The registry aggregates all lanes; the returned solution counts the
	// winner's lane alone.
	if agg := snap.Counters[obs.CtrEvaluations]; agg != laneEvals {
		t.Errorf("aggregate evaluations %d, lane summaries sum to %d", agg, laneEvals)
	}
	if winner < 0 || winner >= len(lanes) {
		t.Fatalf("decision names lane %d of %d", winner, len(lanes))
	}
	if w := lanes[winner]; w.Strategy != sol.Strategy || w.Evaluations != int64(sol.Evaluations) || w.Cost != sol.Report.Objective {
		t.Errorf("winning lane summary %+v, solution %s with %d evaluations and objective %v",
			w, sol.Strategy, sol.Evaluations, sol.Report.Objective)
	}
	if final, ok := obs.FinalCost(events); !ok || final != sol.Report.Objective {
		t.Errorf("trace replays to %v, solution reports %v", final, sol.Report.Objective)
	}
}

// failingLane is a deterministic lane failure.
type failingLane struct{}

func (failingLane) Name() string { return "boom" }
func (failingLane) Run(context.Context, *core.Engine) (*core.Solution, error) {
	return nil, errors.New("synthetic lane failure")
}

// TestPortfolioLaneErrorIsDeterministic pins the error rule: the
// lowest-index non-context lane error fails the whole race, annotated
// with the lane.
func TestPortfolioLaneErrorIsDeterministic(t *testing.T) {
	p := testProblem(t, 14, 20, 10)
	_, err := core.Solve(context.Background(), p, core.Options{
		Strategy:    core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{failingLane{}, core.AH}}),
		Parallelism: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "portfolio lane 0 (boom)") {
		t.Fatalf("err = %v, want portfolio lane 0 (boom) annotation", err)
	}
}

// TestPortfolioDefaultLanes pins that the zero-value portfolio races
// AH, MH and SA, in that lane order.
func TestPortfolioDefaultLanes(t *testing.T) {
	p := hardProblem(t, 15, 20, 10)
	col := &obs.Collector{}
	sol, err := core.Solve(context.Background(), p, core.Options{
		Strategy:    core.Portfolio,
		Parallelism: 1,
		Observer:    &obs.Observer{Tracer: col},
	})
	if err != nil {
		t.Fatal(err)
	}
	lanes, winner := laneSummaries(t, col.Events())
	want := []string{"AH", "MH", "SA"}
	if len(lanes) != len(want) {
		t.Fatalf("trace has %d lane summaries, want %d", len(lanes), len(want))
	}
	for i, ev := range lanes {
		if ev.Strategy != want[i] || !ev.Feasible {
			t.Errorf("lane %d summary = %+v, want %s with a solution", i, ev, want[i])
		}
	}
	if winner < 0 || winner >= len(lanes) || lanes[winner].Strategy != sol.Strategy {
		t.Errorf("decision names lane %d, solution strategy %q", winner, sol.Strategy)
	}
}
