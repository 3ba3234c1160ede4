package core_test

import (
	"testing"

	"incdes/internal/core"
)

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
