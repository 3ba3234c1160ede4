package sched_test

import (
	"bytes"
	"math/rand"
	"testing"

	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
)

// randomMapping assigns every process of app a random allowed node:
// some of the resulting placements schedule, some fail mid-way — both
// paths must roll back exactly.
func randomMapping(rng *rand.Rand, app *model.Application) model.Mapping {
	m := model.Mapping{}
	for _, g := range app.Graphs {
		for _, p := range g.Procs {
			nodes := p.AllowedNodes()
			m[p.ID] = nodes[rng.Intn(len(nodes))]
		}
	}
	return m
}

// TestTxnRollbackProperty is the transactional core's contract test: any
// sequence of Apply calls — feasible or not, even re-applying the same
// application within one transaction — followed by Rollback restores the
// exact pre-Begin state. Exactness is checked on the full serialized
// state (busy timelines, TTP bus ledger, schedule tables, bookkeeping)
// and on the derived slack metrics report. A feasible Apply must change
// that serialized state, so a transaction bound to some other state (a
// by-value copy sharing its transaction) cannot pass vacuously.
func TestTxnRollbackProperty(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tc, err := gen.MakeTestCase(gen.Default(), 500+seed*31, 60, 20)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := tc.Base
		w := metrics.DefaultWeights(tc.Profile)
		pre := append([]byte(nil), st.Fingerprint()...)
		preRep := metrics.Evaluate(st, tc.Profile, w)

		rng := rand.New(rand.NewSource(seed))
		applied, failed := 0, 0
		for iter := 0; iter < 25; iter++ {
			txn := st.Begin()
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if err := txn.Apply(tc.Current, randomMapping(rng, tc.Current), sched.Hints{}); err != nil {
					failed++
				} else {
					applied++
					// The transaction must write to the state it was begun
					// on; otherwise the rollback check below is vacuous.
					if bytes.Equal(st.Fingerprint(), pre) {
						t.Fatalf("seed %d iter %d: a feasible Apply left the state's fingerprint unchanged", seed, iter)
					}
				}
			}
			txn.Rollback()
			if got := st.Fingerprint(); !bytes.Equal(got, pre) {
				t.Fatalf("seed %d iter %d: rollback did not restore the serialized state", seed, iter)
			}
			if rep := metrics.Evaluate(st, tc.Profile, w); rep != preRep {
				t.Fatalf("seed %d iter %d: metrics differ after rollback: %+v vs %+v", seed, iter, rep, preRep)
			}
		}
		if applied == 0 || failed == 0 {
			t.Logf("seed %d: %d successful and %d failed applies (both paths should occur across seeds)", seed, applied, failed)
		}
	}
}
