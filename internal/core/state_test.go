package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"incdes/internal/core"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// hardened returns p with hardProblem's future profile, which no design
// fully satisfies, so MH and SA accept moves and re-place their designs.
func hardened(t *testing.T, p *core.Problem) *core.Problem {
	t.Helper()
	prof := *p.Profile
	prof.TNeed = prof.Tmin * 9 / 10
	prof.BNeedBytes *= 50
	hp, err := core.NewProblem(p.Sys, p.Base, p.Current, &prof, metrics.DefaultWeights(&prof))
	if err != nil {
		t.Fatalf("core.NewProblem: %v", err)
	}
	return hp
}

// TestSolveStateIsFresh pins what a solution's state must be, however a
// strategy placed it: the schedule a fresh clone of the base gets from
// ScheduleApp with the solution's mapping and hints, scored as
// metrics.Evaluate scores it, with no transaction left open on it. It
// runs every strategy on one bus and on three clusters, with one worker
// and with four. MH starts from seed hints that hold a process and a
// message outside the application and hints of 0 or less.
func TestSolveStateIsFresh(t *testing.T) {
	for _, pc := range []struct {
		name string
		p    *core.Problem
	}{
		{"single-bus", hardProblem(t, 11, 50, 25)},
		{"three-clusters", hardened(t, multiclusterProblem(t, 21))},
	} {
		p := pc.p
		g := p.Current.Graphs[0]
		seed := sched.Hints{
			ProcStart: map[model.ProcID]tm.Time{g.Procs[0].ID: g.Period / 3, g.Procs[1].ID: -7, 1 << 20: 40},
			MsgStart:  map[model.MsgID]tm.Time{1 << 20: 15},
		}
		for _, m := range g.Msgs {
			seed.MsgStart[m.ID] = 0
		}
		mh := core.MHWith(core.MHOptions{MaxIterations: 4, SeedHints: seed})
		sa := core.SAWith(core.SAOptions{Seed: 5, Iterations: 300, Restarts: 3})
		portfolio := core.PortfolioWith(core.PortfolioOptions{Lanes: []core.Strategy{core.AH, mh, sa}})
		for _, s := range []core.Strategy{core.AH, mh, sa, portfolio} {
			for _, par := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s/parallelism %d", pc.name, s.Name(), par)
				sol := runSolve(t, p, core.Options{Strategy: s, Parallelism: par})
				want := p.Base.Clone()
				if err := want.ScheduleApp(p.Current, sol.Mapping, sol.Hints); err != nil {
					t.Errorf("%s: the solution's design does not schedule afresh: %v", label, err)
				} else if !bytes.Equal(sol.State.Fingerprint(), want.Fingerprint()) {
					t.Errorf("%s: the state differs from scheduling the solution's design on a fresh clone of the base", label)
				}
				if rep := metrics.Evaluate(sol.State, p.Profile, p.Weights); rep != sol.Report {
					t.Errorf("%s: report %+v, metrics.Evaluate of the state %+v", label, sol.Report, rep)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: the state has a transaction open: %v", label, r)
						}
					}()
					sol.State.Begin().Rollback()
				}()
			}
		}
	}
}
