package core_test

import (
	"testing"

	"incdes/internal/core"
	"incdes/internal/sim"
)

func TestMHTargetNodesOption(t *testing.T) {
	p := testProblem(t, 11, 40, 20)
	narrow, err := solveSerial(p, core.MHWith(core.MHOptions{TargetNodes: 1, MaxIterations: 4}))
	if err != nil {
		t.Fatalf("TargetNodes=1: %v", err)
	}
	wide, err := solveSerial(p, core.MHWith(core.MHOptions{TargetNodes: -1, MaxIterations: 4}))
	if err != nil {
		t.Fatalf("TargetNodes=-1: %v", err)
	}
	if narrow.Evaluations > wide.Evaluations {
		t.Errorf("narrow search examined %d alternatives, wide %d; expected narrow <= wide",
			narrow.Evaluations, wide.Evaluations)
	}
	for _, sol := range []*core.Solution{narrow, wide} {
		if vs := sim.Check(sol.State, allApps(p)...); len(vs) != 0 {
			t.Fatalf("invalid schedule: %v", vs[0])
		}
	}
}

func TestMHMaxIterationsBounds(t *testing.T) {
	p := testProblem(t, 12, 40, 30)
	one, err := solveSerial(p, core.MHWith(core.MHOptions{MaxIterations: 1}))
	if err != nil {
		t.Fatal(err)
	}
	many, err := solveSerial(p, core.MHWith(core.MHOptions{MaxIterations: 20}))
	if err != nil {
		t.Fatal(err)
	}
	if one.Evaluations > many.Evaluations {
		t.Errorf("1 iteration examined %d alternatives, 20 iterations %d",
			one.Evaluations, many.Evaluations)
	}
	if many.Report.Objective > one.Report.Objective+1e-9 {
		t.Errorf("more iterations made the objective worse: %v vs %v",
			many.Report.Objective, one.Report.Objective)
	}
}

func TestSATemperatureOptions(t *testing.T) {
	p := testProblem(t, 13, 40, 20)
	sol, err := solveSerial(p, core.SAWith(core.SAOptions{
		Iterations:  200,
		Restarts:    1,
		InitialTemp: 5,
		FinalTemp:   0.01,
		Seed:        9,
	}))
	if err != nil {
		t.Fatalf("SA with custom temperatures: %v", err)
	}
	if sol.Evaluations != 201 {
		t.Errorf("evaluations = %d, want 201", sol.Evaluations)
	}
	if vs := sim.Check(sol.State, allApps(p)...); len(vs) != 0 {
		t.Fatalf("invalid schedule: %v", vs[0])
	}
}

func TestSolutionObjectiveAccessor(t *testing.T) {
	p := testProblem(t, 14, 40, 15)
	sol, err := solveSerial(p, core.AH)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective() != sol.Report.Objective {
		t.Error("Objective() accessor disagrees with the report")
	}
	if sol.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}
