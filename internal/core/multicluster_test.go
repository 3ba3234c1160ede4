package core_test

import (
	"testing"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/metrics"
)

// multiclusterProblem builds a Problem over the generated 3-cluster
// family: three TDMA buses chained by two gateway nodes, a quarter of
// the processes pooled on a neighboring cluster so inter-cluster
// traffic actually exists.
func multiclusterProblem(t *testing.T, seed int64) *core.Problem {
	t.Helper()
	cfg := gen.Multicluster(3, 3, 0.25)
	cfg.GraphMinProcs = 4
	cfg.GraphMaxProcs = 10
	tc, err := gen.MakeTestCase(cfg, seed, 40, 20)
	if err != nil {
		t.Fatalf("MakeTestCase: %v", err)
	}
	if got := len(tc.Sys.Arch.Buses); got != 3 {
		t.Fatalf("generated %d buses, want 3", got)
	}
	p, err := core.NewProblem(tc.Sys, tc.Base, tc.Current, tc.Profile, metrics.DefaultWeights(tc.Profile))
	if err != nil {
		t.Fatalf("core.NewProblem: %v", err)
	}
	return p
}

// TestSolveDeterministicAcrossParallelismMulticluster extends the core
// determinism guarantee to multi-cluster platforms: with gateway
// forwarding in the evaluation path, the solution — report included —
// must still be identical whether candidates are evaluated by one
// worker or many. The reference solution must also be a valid
// multi-hop schedule.
func TestSolveDeterministicAcrossParallelismMulticluster(t *testing.T) {
	p := multiclusterProblem(t, 21)
	strategies := []struct {
		name  string
		strat core.Strategy
	}{
		{"MH", core.MHWith(core.MHOptions{MaxIterations: 8})},
		{"SA", core.SAWith(core.SAOptions{Seed: 3, Iterations: 400, Restarts: 3})},
	}
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			ref := runSolve(t, p, core.Options{Strategy: s.strat, Parallelism: 1})
			if err := checkSchedule(ref.State, allApps(p)...); err != nil {
				t.Fatalf("%s schedule invalid: %v", s.name, err)
			}
			for _, par := range []int{4} {
				got := runSolve(t, p, core.Options{Strategy: s.strat, Parallelism: par})
				sameDesign(t, s.name, ref, got)
			}
		})
	}
}
