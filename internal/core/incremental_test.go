package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"incdes/internal/core"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
)

// TestEvaluateMatchesReference is the differential test of the
// transactional evaluation: over a random walk of annealing neighbors,
// Engine.Evaluate (Begin / Apply / EvaluateTxn / Rollback on a worker's
// base copy) must return exactly what the reference
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
				mappings[i], hints[i], _ = core.Neighbor(rng, p, m, h)
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
				eng := core.NewEngine(p, core.Options{Parallelism: par})
				got := make([]metrics.Report, n)
				gotOK := make([]bool, n)
				designs := make([]*core.Design, n)
				for i := range designs {
					d, err := eng.NewDesign(mappings[i], hints[i])
					if err != nil {
						t.Fatal(err)
					}
					designs[i] = d
				}
				eng.ForEach(context.Background(), n, func(i int) {
					got[i], gotOK[i] = eng.Evaluate(designs[i], sched.Move{})
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

// TestEvaluateMovesMatchReference is the differential test of the held
// design: every worker keeps the design it evaluated last placed and
// re-places a candidate only from the first job it decides differently,
// so a result must not depend on what a worker held before. A walk of
// moves over changing incumbents checks that against the reference (a
// clone of the base scheduled from scratch, scored by metrics.Evaluate)
// on a single-bus and a 3-cluster platform, with one worker and with
// four. It has two parts. MH-style: batches of moves over one incumbent,
// fanned across the workers, the best feasible one becoming the next
// incumbent. SA-style: four chains at once, each drawing moves over its
// own current design and accepting a feasible one with probability
// one half, so the workers' held designs keep changing hands. About one
// move in eight maps a process to a node that does not exist, so the
// walk also holds infeasible designs, whose feasible prefix stays placed.
func TestEvaluateMovesMatchReference(t *testing.T) {
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
			start := core.NewDesign(p, ah.Mapping, ah.Hints)
			procs := p.Current.Graphs[0].Procs
			draw := func(rng *rand.Rand, cur *core.Design) sched.Move {
				if rng.Intn(8) == 0 {
					return sched.Move{Kind: sched.MoveProc, Proc: procs[rng.Intn(len(procs))].ID, Node: 1 << 20}
				}
				for {
					if mv, changed := core.NeighborMove(rng, p, cur); changed {
						return mv
					}
				}
			}
			for _, par := range []int{1, 4} {
				eng := core.NewEngine(p, core.Options{Parallelism: par})
				var mu sync.Mutex
				var evals, infeasible int
				var mismatch string
				check := func(cur *core.Design, mv sched.Move) (metrics.Report, bool) {
					got, ok := eng.Evaluate(cur, mv)
					d := cur.With(mv)
					_, want, err := core.ReferenceEvaluate(p, d.Mapping(), d.Hints())
					mu.Lock()
					defer mu.Unlock()
					evals++
					if !ok {
						infeasible++
					}
					if ok != (err == nil) || !reflect.DeepEqual(got, want) {
						mismatch = fmt.Sprintf("move %+v: Evaluate = (%+v, %v), reference = (%+v, %v)", mv, got, ok, want, err)
					}
					return got, ok
				}

				rng := rand.New(rand.NewSource(3))
				cur := start
				for iter := 0; iter < 8; iter++ {
					moves := make([]sched.Move, 24)
					for i := range moves {
						moves[i] = draw(rng, cur)
					}
					reps := make([]metrics.Report, len(moves))
					oks := make([]bool, len(moves))
					eng.ForEach(context.Background(), len(moves), func(i int) {
						reps[i], oks[i] = check(cur, moves[i])
					})
					best := -1
					for i := range moves {
						if oks[i] && (best < 0 || reps[i].Objective < reps[best].Objective) {
							best = i
						}
					}
					if best < 0 {
						t.Fatalf("par %d: no feasible move in batch %d", par, iter)
					}
					cur = cur.With(moves[best])
				}

				eng.ForEach(context.Background(), 4, func(c int) {
					rng := rand.New(rand.NewSource(int64(100 + c)))
					cur := start
					for i := 0; i < 200; i++ {
						mv := draw(rng, cur)
						if _, ok := check(cur, mv); ok && rng.Intn(2) == 0 {
							cur = cur.With(mv)
						}
					}
				})
				if mismatch != "" {
					t.Fatalf("par %d: %s", par, mismatch)
				}
				if infeasible == 0 || infeasible == evals {
					t.Fatalf("par %d: %d of %d evaluations infeasible: the walk does not exercise both outcomes", par, infeasible, evals)
				}
				t.Logf("par %d: %d evaluations, %d infeasible", par, evals, infeasible)
			}
		})
	}
}
