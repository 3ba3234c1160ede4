package metrics_test

import (
	"math/rand"
	"testing"

	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
)

func incMapping(rng *rand.Rand, app *model.Application) model.Mapping {
	m := model.Mapping{}
	for _, g := range app.Graphs {
		for _, p := range g.Procs {
			nodes := p.AllowedNodes()
			m[p.ID] = nodes[rng.Intn(len(nodes))]
		}
	}
	return m
}

// TestEvaluateTxnMatchesEvaluate is the differential test the whole
// incremental layer hangs on: for random candidate placements applied
// under a transaction, EvaluateTxn must equal Evaluate on the same state
// bit for bit — including the floating-point packing fractions,
// PeriodicFill and the objective, which only match if the incremental
// path replays the exact same operation sequence.
func TestEvaluateTxnMatchesEvaluate(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		// A current application smaller than the node count, so candidate
		// placements routinely leave timelines clean and the cached-vector
		// path actually runs (bigger apps dirty every node and degenerate
		// to the full-recompute classification).
		tc, err := gen.MakeTestCase(gen.Default(), 900+seed*17, 80, 8)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w := metrics.DefaultWeights(tc.Profile)
		base := tc.Base
		bl := metrics.NewBaseline(base, tc.Profile, w)
		ev := bl.Evaluator()

		rng := rand.New(rand.NewSource(seed))
		matched, fulls := 0, 0
		for iter := 0; iter < 40; iter++ {
			txn := base.Begin()
			if err := txn.Apply(tc.Current, incMapping(rng, tc.Current), sched.Hints{}); err != nil {
				txn.Rollback()
				continue
			}
			got, full := ev.EvaluateTxn(base, txn)
			want := metrics.Evaluate(base, tc.Profile, w)
			txn.Rollback()
			if got != want {
				t.Fatalf("seed %d iter %d (full=%v): EvaluateTxn = %+v, Evaluate = %+v", seed, iter, full, got, want)
			}
			matched++
			if full {
				fulls++
			}
		}
		if matched == 0 {
			t.Fatalf("seed %d: no feasible candidate placements; differential never ran", seed)
		}
		if fulls == matched {
			t.Errorf("seed %d: every evaluation fell back to a full recompute; the incremental path never ran", seed)
		}
	}
}

// TestEvaluateTxnFullFallback forces the every-node-dirty case: the
// evaluator must detect there is nothing to reuse, fall back to the full
// recompute, and still report identical numbers.
func TestEvaluateTxnFullFallback(t *testing.T) {
	cfg := gen.Default()
	cfg.Nodes = 2 // a 2-node system: almost any placement touches every timeline
	tc, err := gen.MakeTestCase(cfg, 77, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	w := metrics.DefaultWeights(tc.Profile)
	ev := metrics.NewBaseline(tc.Base, tc.Profile, w).Evaluator()

	rng := rand.New(rand.NewSource(7))
	sawFull := false
	for iter := 0; iter < 40 && !sawFull; iter++ {
		txn := tc.Base.Begin()
		if err := txn.Apply(tc.Current, incMapping(rng, tc.Current), sched.Hints{}); err != nil {
			txn.Rollback()
			continue
		}
		got, full := ev.EvaluateTxn(tc.Base, txn)
		want := metrics.Evaluate(tc.Base, tc.Profile, w)
		txn.Rollback()
		if got != want {
			t.Fatalf("iter %d (full=%v): EvaluateTxn = %+v, Evaluate = %+v", iter, full, got, want)
		}
		sawFull = sawFull || full
	}
	if !sawFull {
		t.Skip("no placement dirtied every node; fallback not exercised on this workload")
	}
}

// TestBaselineSurvivesRollbacks pins that the baseline caches really are
// immutable: after many Apply/EvaluateTxn/Rollback cycles the same
// evaluator still reproduces Evaluate's numbers for the untouched base.
func TestBaselineSurvivesRollbacks(t *testing.T) {
	tc, err := gen.MakeTestCase(gen.Default(), 321, 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	w := metrics.DefaultWeights(tc.Profile)
	ev := metrics.NewBaseline(tc.Base, tc.Profile, w).Evaluator()
	want := metrics.Evaluate(tc.Base, tc.Profile, w)

	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		txn := tc.Base.Begin()
		if err := txn.Apply(tc.Current, incMapping(rng, tc.Current), sched.Hints{}); err == nil {
			_, _ = ev.EvaluateTxn(tc.Base, txn)
		}
		txn.Rollback()
	}
	if got := metrics.Evaluate(tc.Base, tc.Profile, w); got != want {
		t.Fatalf("base metrics drifted across evaluation cycles: %+v vs %+v", got, want)
	}
}
