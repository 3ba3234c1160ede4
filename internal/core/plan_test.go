package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"incdes/internal/core"
)

// customStrategy is a whole-unit strategy outside the built-in set.
type customStrategy struct{}

func (customStrategy) Name() string { return "custom" }
func (customStrategy) Run(ctx context.Context, eng *core.Engine) (*core.Solution, error) {
	return core.AH.Run(ctx, eng)
}

func TestPlan(t *testing.T) {
	sa2 := core.SAWith(core.SAOptions{Restarts: 2})
	cases := []struct {
		name  string
		strat core.Strategy
		want  []core.Unit
	}{
		{"ah-whole", core.AH, []core.Unit{{Name: "AH"}}},
		{"mh-whole", core.MH, []core.Unit{{Name: "MH"}}},
		{"custom-whole", customStrategy{}, []core.Unit{{Name: "custom"}}},
		{"sa-default-restarts", core.SA, []core.Unit{{Name: "SA"}}},
		{"sa-one-unit-per-chain", core.SAWith(core.SAOptions{Restarts: 3}),
			[]core.Unit{{Name: "SA"}, {Name: "SA", Chain: 1}, {Name: "SA", Chain: 2}}},
		{"sa-negative-restarts", core.SAWith(core.SAOptions{Restarts: -2}), []core.Unit{{Name: "SA"}}},
		{"sa-chain-offset", core.SAWith(core.SAOptions{Restarts: 2, ChainOffset: 5}),
			[]core.Unit{{Name: "SA", Chain: 5}, {Name: "SA", Chain: 6}}},
		{"portfolio-default-lanes", core.PortfolioWith(core.PortfolioOptions{}),
			[]core.Unit{{Lane: 0, Name: "AH"}, {Lane: 1, Name: "MH"}, {Lane: 2, Name: "SA"}}},
		{"portfolio-lanes-plus-chains", core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{core.AH, core.MH, sa2}}),
			[]core.Unit{{Lane: 0, Name: "AH"}, {Lane: 1, Name: "MH"}, {Lane: 2, Name: "SA"}, {Lane: 2, Name: "SA", Chain: 1}}},
		{"portfolio-custom-lane-order", core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{sa2, customStrategy{}, core.AH}}),
			[]core.Unit{{Lane: 0, Name: "SA"}, {Lane: 0, Name: "SA", Chain: 1}, {Lane: 1, Name: "custom"}, {Lane: 2, Name: "AH"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := core.Plan(tc.strat).Units; !reflect.DeepEqual(got, tc.want) {
				t.Errorf("units =\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}
}

// TestSANegativeRestartsRunOneChain pins that a restart count below 1 —
// reachable from the sa-restarts query parameter — runs one chain
// rather than panicking on a negative allocation.
func TestSANegativeRestartsRunOneChain(t *testing.T) {
	p := testProblem(t, 11, 20, 10)
	solve := func(restarts int) solutionIdentity {
		sol, err := core.Solve(context.Background(), p, core.Options{
			Strategy:    core.SAWith(core.SAOptions{Iterations: 50, Restarts: restarts}),
			Parallelism: 1,
		})
		if err != nil {
			t.Fatalf("restarts %d: %v", restarts, err)
		}
		return identity(t, sol)
	}
	if got, want := solve(-1), solve(1); got != want {
		t.Errorf("restarts -1 = %+v, want the one-chain result %+v", got, want)
	}
}

func ok(objective float64, evals int) core.Outcome {
	return core.Outcome{Objective: objective, Evaluations: evals}
}

func failed(msg string) core.Outcome { return core.Outcome{Err: errors.New(msg)} }

func TestReduce(t *testing.T) {
	sa3 := core.SAWith(core.SAOptions{Restarts: 3})
	sa2 := core.SAWith(core.SAOptions{Restarts: 2})
	port := core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{core.AH, core.MH, sa2}})
	cancelled := core.Outcome{Err: context.Canceled}
	cases := []struct {
		name    string
		strat   core.Strategy
		outs    []core.Outcome
		winner  int
		want    core.Outcome
		wantErr string
	}{
		{name: "whole-unit-passes-through", strat: core.MH,
			outs: []core.Outcome{{Objective: 3, Evaluations: 40, Interrupted: true}}, winner: 0,
			want: core.Outcome{Objective: 3, Evaluations: 40, Interrupted: true}},
		{name: "whole-unit-error-unwrapped", strat: core.AH,
			outs: []core.Outcome{failed("no mapping")}, winner: -1, wantErr: "no mapping"},
		// Grouping-independent total: 1 + (100 + 50 + 30).
		{name: "sa-winner-and-evals", strat: sa3,
			outs: []core.Outcome{ok(10, 101), ok(4, 51), ok(7, 31)}, winner: 1,
			want: ok(4, 181)},
		{name: "sa-ties-break-to-lowest-chain", strat: sa2,
			outs: []core.Outcome{ok(5, 2), ok(5, 2)}, winner: 0, want: ok(5, 3)},
		{name: "sa-interrupted-ors", strat: sa2,
			outs: []core.Outcome{ok(5, 2), {Objective: 6, Evaluations: 2, Interrupted: true}}, winner: 0,
			want: core.Outcome{Objective: 5, Evaluations: 3, Interrupted: true}},
		{name: "sa-first-chain-error-unwrapped", strat: sa3,
			outs: []core.Outcome{ok(1, 2), failed("chain 1 broke"), failed("chain 2 broke")}, winner: -1,
			wantErr: "chain 1 broke"},
		{name: "sa-skips-context-errors", strat: sa3,
			outs: []core.Outcome{cancelled, ok(8, 11), ok(6, 21)}, winner: 2, want: ok(6, 31)},
		{name: "sa-error-beats-skipped-chain", strat: sa2,
			outs: []core.Outcome{cancelled, failed("boom")}, winner: -1, wantErr: "boom"},
		{name: "sa-all-skipped", strat: sa2,
			outs: []core.Outcome{cancelled, cancelled}, winner: -1, wantErr: context.Canceled.Error()},
		{name: "portfolio-sa-chain-error", strat: port,
			outs: []core.Outcome{ok(9, 1), ok(8, 20), ok(7, 30), failed("chain exploded")}, winner: -1,
			wantErr: "core: portfolio lane 2 (SA): chain exploded"},
		{name: "portfolio-lane-error-beats-better-objective", strat: port,
			outs: []core.Outcome{ok(5, 1), failed("mh failed"), ok(1, 30), ok(0, 30)}, winner: -1,
			wantErr: "core: portfolio lane 1 (MH): mh failed"},
		{name: "portfolio-lowest-lane-error-wins", strat: port,
			outs: []core.Outcome{ok(5, 1), failed("mh failed"), failed("sa failed"), ok(0, 30)}, winner: -1,
			wantErr: "core: portfolio lane 1 (MH): mh failed"},
		{name: "portfolio-ties-break-to-lowest-lane", strat: port,
			outs: []core.Outcome{ok(3, 1), ok(3, 20), ok(3, 30), ok(3, 30)}, winner: 0, want: ok(3, 1)},
		{name: "portfolio-sa-chain-wins", strat: port,
			outs: []core.Outcome{ok(9, 1), ok(8, 20), ok(7, 31), ok(2, 41)}, winner: 3, want: ok(2, 71)},
		{name: "portfolio-skips-context-errors", strat: port,
			outs: []core.Outcome{{Err: context.DeadlineExceeded}, ok(5, 20), ok(6, 30), cancelled}, winner: 1,
			want: ok(5, 20)},
		{name: "portfolio-all-skipped", strat: port,
			outs: []core.Outcome{{Err: context.DeadlineExceeded}, cancelled, cancelled, cancelled}, winner: -1,
			wantErr: context.DeadlineExceeded.Error()},
		{name: "portfolio-custom-lane-order-ties", strat: core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{sa2, core.MH, core.AH}}),
			outs: []core.Outcome{ok(4, 11), ok(4, 11), ok(4, 5), ok(4, 1)}, winner: 0, want: ok(4, 21)},
		{name: "portfolio-custom-lane-order-error", strat: core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{sa2, core.MH, core.AH}}),
			outs: []core.Outcome{ok(4, 11), ok(4, 11), ok(4, 5), failed("ah failed")}, winner: -1,
			wantErr: "core: portfolio lane 2 (AH): ah failed"},
		// A lane that completes naturally with objective 0 decides the
		// race with the lanes below it: an error above it is cut.
		{name: "portfolio-zero-lane-cuts-a-later-error", strat: port,
			outs: []core.Outcome{ok(0, 1), failed("mh failed"), ok(1, 30), ok(2, 30)}, winner: 0,
			want: ok(0, 1)},
		// An interrupted zero is not a natural completion, so it cuts
		// nothing and the lane error stands.
		{name: "portfolio-interrupted-zero-does-not-cut", strat: port,
			outs: []core.Outcome{{Objective: 0, Evaluations: 1, Interrupted: true}, failed("mh failed"), ok(1, 30), ok(2, 30)}, winner: -1,
			wantErr: "core: portfolio lane 1 (MH): mh failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			winner, got, err := core.Reduce(core.Plan(tc.strat), tc.outs)
			if winner != tc.winner {
				t.Errorf("winner = %d, want %d", winner, tc.winner)
			}
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("combined = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestReduceMatchesDirectSolve is the in-process differential test of
// the unit model: solving every planned unit on its own — SA chain k as
// a one-chain solve at ChainOffset k, the way a cluster worker runs it —
// and folding the results through Reduce gives the same answer as one
// Solve of the whole strategy.
func TestReduceMatchesDirectSolve(t *testing.T) {
	p := testProblem(t, 11, 40, 20)
	const iters, seed = 200, 3
	saWith := func(restarts, offset int) core.Strategy {
		return core.SAWith(core.SAOptions{Iterations: iters, Seed: seed, Restarts: restarts, ChainOffset: offset})
	}
	unitStrategy := func(u core.Unit) core.Strategy {
		switch u.Name {
		case "AH":
			return core.AH
		case "MH":
			return core.MH
		}
		return saWith(1, u.Chain)
	}
	cases := []struct {
		name  string
		strat core.Strategy
	}{
		{"ah", core.AH},
		{"mh", core.MH},
		{"sa", saWith(3, 0)},
		{"portfolio", core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{core.AH, core.MH, saWith(2, 0)}})},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			direct, err := core.Solve(context.Background(), p, core.Options{Strategy: tc.strat, Parallelism: par})
			if err != nil {
				t.Fatalf("%s: direct solve: %v", tc.name, err)
			}
			plan := core.Plan(tc.strat)
			sols := make([]*core.Solution, len(plan.Units))
			outs := make([]core.Outcome, len(plan.Units))
			for i, u := range plan.Units {
				sols[i], err = core.Solve(context.Background(), p, core.Options{Strategy: unitStrategy(u), Parallelism: par})
				if err != nil {
					t.Fatalf("%s unit %d: %v", tc.name, i, err)
				}
				outs[i] = core.Outcome{Objective: sols[i].Report.Objective, Evaluations: sols[i].Evaluations, Interrupted: sols[i].Interrupted}
			}
			winner, sum, err := core.Reduce(plan, outs)
			if err != nil {
				t.Fatalf("%s: reduce: %v", tc.name, err)
			}
			type result struct {
				Strategy    string
				Objective   float64
				Evaluations int
				Interrupted bool
				StateFP     string
			}
			got := result{sols[winner].Strategy, sum.Objective, sum.Evaluations, sum.Interrupted, stateFP(t, sols[winner])}
			want := result{direct.Strategy, direct.Report.Objective, direct.Evaluations, direct.Interrupted, stateFP(t, direct)}
			if got != want {
				t.Errorf("%s at parallelism %d: unit-wise reduce differs from direct solve:\n got %+v\nwant %+v", tc.name, par, got, want)
			}
		}
	}
}
