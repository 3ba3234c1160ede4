package sched_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"incdes/internal/gen"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// rescaledCopy returns a deep copy of app with the same application,
// graph, process and message IDs but every WCET changed: an application
// a job order keyed by IDs would confuse with app.
func rescaledCopy(app *model.Application) *model.Application {
	c := &model.Application{ID: app.ID, Name: app.Name + "-rescaled"}
	for _, g := range app.Graphs {
		cg := &model.Graph{ID: g.ID, Name: g.Name, Period: g.Period, Deadline: g.Deadline}
		for _, p := range g.Procs {
			wcet := make(map[model.NodeID]tm.Time, len(p.WCET))
			for n, w := range p.WCET {
				wcet[n] = w - w/3
			}
			cg.Procs = append(cg.Procs, &model.Process{ID: p.ID, Name: p.Name, WCET: wcet})
		}
		for _, m := range g.Msgs {
			cm := *m
			cg.Msgs = append(cg.Msgs, &cm)
		}
		c.Graphs = append(c.Graphs, cg)
	}
	return c
}

// candidateMapping returns the initial mapping of app on base when MapApp
// finds one, with some processes moved to another allowed node, and a
// random mapping otherwise: a mix of feasible and infeasible designs.
func candidateMapping(rng *rand.Rand, base *sched.State, app *model.Application) model.Mapping {
	m, err := base.Clone().MapApp(app, sched.Hints{})
	if err != nil {
		return randomMapping(rng, app)
	}
	for _, g := range app.Graphs {
		for _, p := range g.Procs {
			if nodes := p.AllowedNodes(); rng.Intn(8) == 0 {
				m[p.ID] = nodes[rng.Intn(len(nodes))]
			}
		}
	}
	return m
}

// fittingFutureApp samples future applications for tc until one maps
// onto the base: most samples do not fit the existing applications'
// slack, and the comparison needs placements of this application too.
func fittingFutureApp(t *testing.T, tc *gen.TestCase, seed int64) *model.Application {
	t.Helper()
	futGen := gen.New(quickConfig(), seed+50)
	futGen.StartIDsAt(1 << 20)
	for i := 0; i < 20; i++ {
		fut := futGen.FutureApp(fmt.Sprintf("future%d", i), tc.Profile, 6)
		if _, err := tc.Base.Clone().MapApp(fut, sched.Hints{}); err == nil {
			return fut
		}
	}
	t.Fatalf("seed %d: no sampled future application maps onto the base", seed)
	return nil
}

// TestTxnApplyMatchesScheduleApp pins the job order a transaction keeps
// between Apply calls. On one state and one transaction it alternates
// Apply calls, rolled back in between, of the current application, a
// sampled future application and a copy of the current application
// with the same IDs but other WCETs, under several mappings and hint
// sets. After each Apply the state must be byte-identical to
// ScheduleApp of the same inputs on a fresh clone of the base, and
// either both fail or neither does. Two Apply calls inside one
// transaction must match two ScheduleApp calls in a row.
func TestTxnApplyMatchesScheduleApp(t *testing.T) {
	cfg := quickConfig()
	for seed := int64(1); seed <= 2; seed++ {
		tc, err := gen.MakeTestCase(cfg, seed, 40, 12)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		apps := []*model.Application{tc.Current, fittingFutureApp(t, tc, seed), rescaledCopy(tc.Current)}
		rng := rand.New(rand.NewSource(seed))
		type step struct {
			app     int
			mapping model.Mapping
			hints   sched.Hints
		}
		draw := func(app int) step {
			s := step{app: app, mapping: candidateMapping(rng, tc.Base, apps[app])}
			if rng.Intn(2) == 0 {
				s.hints = fuzzHints(rng, apps[app])
			}
			return s
		}
		// apply runs the steps in one transaction on st and the same
		// steps as ScheduleApp calls on a fresh clone of the base,
		// comparing after each step; it reports how many succeeded.
		st := tc.Base.Clone()
		apply := func(label string, steps ...step) int {
			ref := tc.Base.Clone()
			txn := st.Begin()
			defer txn.Rollback()
			feasible := 0
			for i, s := range steps {
				app := apps[s.app]
				refErr := ref.ScheduleApp(app, s.mapping, s.hints)
				err := txn.Apply(app, s.mapping, s.hints)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("seed %d %s step %d (app %d): Apply error %v, ScheduleApp error %v", seed, label, i, s.app, err, refErr)
				}
				if !bytes.Equal(st.Fingerprint(), ref.Fingerprint()) {
					t.Fatalf("seed %d %s step %d (app %d): Apply and ScheduleApp states differ", seed, label, i, s.app)
				}
				if err == nil {
					feasible++
				}
			}
			return feasible
		}

		const iters = 36
		feasible := make([]int, len(apps))
		for iter := 0; iter < iters; iter++ {
			// Every app in turn, sometimes twice in a row, so the kept
			// order is both reused and replaced.
			app := (iter / 2) % len(apps)
			if iter%2 == 1 && rng.Intn(2) == 0 {
				app = rng.Intn(len(apps))
			}
			feasible[app] += apply(fmt.Sprintf("iter %d", iter), draw(app))
		}
		total := 0
		for app, n := range feasible {
			if n == 0 {
				t.Errorf("seed %d: no feasible Apply of app %d; the comparison must cover placements", seed, app)
			}
			total += n
		}
		if total == iters {
			t.Errorf("seed %d: every Apply was feasible; the comparison must cover failures", seed)
		}
		apply("current then future", draw(0), draw(1))
		apply("current then rescaled", draw(0), draw(2))
		apply("future then current", draw(1), draw(0))
	}
}
