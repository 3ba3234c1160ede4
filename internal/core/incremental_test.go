package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"incdes/internal/core"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
)

// TestEvaluateMatchesReference is the differential test of the
// transactional evaluation: over a random walk of annealing neighbors,
// Engine.Evaluate (Begin / Apply / EvaluateTxn / Rollback on a worker's
// base copy, memo disabled) must return exactly what the reference
// returns — a clone of the base scheduled from scratch and scored by
// metrics.Evaluate — on a single-bus and a 3-cluster platform, with one
// worker and with four evaluating concurrently.
func TestEvaluateMatchesReference(t *testing.T) {
	const n = 500
	problems := []struct {
		name string
		p    *core.Problem
	}{
		{"single-bus", testProblem(t, 21, 50, 25)},
		{"multicluster", multiclusterProblem(t, 21)},
	}
	for _, pc := range problems {
		t.Run(pc.name, func(t *testing.T) {
			p := pc.p
			ah := runSolve(t, p, core.Options{Strategy: core.AH, Parallelism: 1})
			rng := rand.New(rand.NewSource(7))
			mappings := make([]model.Mapping, n)
			hints := make([]sched.Hints, n)
			want := make([]metrics.Report, n)
			wantOK := make([]bool, n)
			m, h := ah.Mapping, ah.Hints
			feasible := 0
			for i := 0; i < n; i++ {
				mappings[i], hints[i] = core.Neighbor(rng, p, m, h)
				_, rep, err := core.ReferenceEvaluate(p, mappings[i], hints[i])
				if err == nil {
					// Walk on from every feasible candidate so the draw
					// covers designs far from the initial mapping.
					want[i], wantOK[i] = rep, true
					m, h = mappings[i], hints[i]
					feasible++
				}
			}
			if feasible == 0 {
				t.Fatal("no feasible candidate drawn")
			}
			for _, par := range []int{1, 4} {
				eng := core.NewEngine(p, core.Options{Parallelism: par, CacheSize: -1})
				got := make([]metrics.Report, n)
				gotOK := make([]bool, n)
				eng.ForEach(context.Background(), n, func(i int) {
					got[i], gotOK[i] = eng.Evaluate(mappings[i], hints[i])
				})
				for i := 0; i < n; i++ {
					if gotOK[i] != wantOK[i] || !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("par %d: candidate %d: Evaluate = (%+v, %v), reference = (%+v, %v)",
							par, i, got[i], gotOK[i], want[i], wantOK[i])
					}
				}
			}
			t.Logf("%d candidates, %d feasible", n, feasible)
		})
	}
}
