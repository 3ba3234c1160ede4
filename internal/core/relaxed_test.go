package core_test

import (
	"context"
	"testing"

	"incdes/internal/core"
	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// relaxedFixture builds a single-node system where the existing
// application occupies [0,80) of a 100 tu period, and the current
// application needs 50 tu: infeasible while the existing app is frozen,
// feasible once it may be rescheduled (30+50 = 80 <= 100).
func relaxedFixture(t *testing.T) *core.RelaxedProblem {
	t.Helper()
	b := model.NewBuilder()
	n0 := b.Node("N0")
	b.Bus([]model.NodeID{n0}, []int{10}, 1, 0) // round 10
	ga := b.App("legacy").Graph("G1", 100, 100)
	ga.Proc("A1", map[model.NodeID]tm.Time{n0: 30})
	ga.Proc("A2", map[model.NodeID]tm.Time{n0: 50})
	gb := b.App("current").Graph("G2", 100, 100)
	gb.Proc("B", map[model.NodeID]tm.Time{n0: 50})
	sys := b.MustSystem()

	prof := future.PaperProfile(100, 10, 2)
	prof.WCET = []future.Bin{{Size: 10, Prob: 1}}
	return &core.RelaxedProblem{
		Sys:      sys,
		Base:     mustMapExisting(t, sys, sys.Apps[:1]),
		Existing: []core.ExistingApp{{App: sys.Apps[0], Cost: 7}},
		Current:  sys.Apps[1],
		Profile:  prof,
		Weights:  metrics.DefaultWeights(prof),
	}
}

// mustMapExisting schedules the given applications in arrival order with
// the initial mapper and returns the resulting base state.
func mustMapExisting(t *testing.T, sys *model.System, apps []*model.Application) *sched.State {
	t.Helper()
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		if _, err := st.MapApp(app, sched.Hints{}); err != nil {
			t.Fatalf("base placement of %q: %v", app.Name, err)
		}
	}
	return st
}

func TestSolveRelaxedPrefersNoModification(t *testing.T) {
	// Shrink the existing app so everything fits frozen.
	rp := relaxedFixture(t)
	rp.Existing[0].App.Graphs[0].Procs[1].WCET[0] = 10 // A2: 50 -> 10
	rp.Base = mustMapExisting(t, rp.Sys, rp.Sys.Apps[:1])
	sol, err := core.SolveRelaxedContext(context.Background(), rp, core.RelaxedOptions{})
	if err != nil {
		t.Fatalf("SolveRelaxedContext: %v", err)
	}
	if len(sol.Modified) != 0 || sol.Cost != 0 {
		t.Errorf("modified %v at cost %v; the frozen design suffices", sol.Modified, sol.Cost)
	}
	if err := checkSchedule(sol.State, rp.Existing[0].App, rp.Current); err != nil {
		t.Fatalf("relaxed schedule invalid: %v", err)
	}
}

func TestSolveRelaxedModifiesWhenForced(t *testing.T) {
	// One node, 100 tu period. Existing: one 50 tu process (deadline
	// 100), packed at [0,50). Current: one 50 tu process with deadline
	// 60 — infeasible behind the frozen application, feasible once the
	// legacy application may be rescheduled after it.
	b := model.NewBuilder()
	n0 := b.Node("N0")
	b.Bus([]model.NodeID{n0}, []int{10}, 1, 0)
	ga := b.App("legacy").Graph("G1", 100, 100)
	ga.Proc("A", map[model.NodeID]tm.Time{n0: 50})
	gb := b.App("current").Graph("G2", 100, 60)
	gb.Proc("B", map[model.NodeID]tm.Time{n0: 50})
	sys := b.MustSystem()

	prof := future.PaperProfile(100, 10, 2)
	prof.WCET = []future.Bin{{Size: 10, Prob: 1}}
	rp := &core.RelaxedProblem{
		Sys:      sys,
		Base:     mustMapExisting(t, sys, sys.Apps[:1]),
		Existing: []core.ExistingApp{{App: sys.Apps[0], Cost: 7}},
		Current:  sys.Apps[1],
		Profile:  prof,
		Weights:  metrics.DefaultWeights(prof),
	}
	sol, err := core.SolveRelaxedContext(context.Background(), rp, core.RelaxedOptions{})
	if err != nil {
		t.Fatalf("SolveRelaxedContext: %v", err)
	}
	if sol.Cost != 7 || len(sol.Modified) != 1 {
		t.Errorf("modified %v at cost %v; want the legacy application at cost 7", sol.Modified, sol.Cost)
	}
	if sol.Subsets != 2 {
		t.Errorf("evaluated %d subsets, want 2 (frozen first, then {legacy})", sol.Subsets)
	}
	if err := checkSchedule(sol.State, sys.Apps...); err != nil {
		t.Fatalf("relaxed schedule invalid: %v", err)
	}
	// B must now run before its 60 tu deadline.
	for _, e := range sol.State.ProcEntries() {
		if e.App == sys.Apps[1].ID && e.End > 60 {
			t.Errorf("current application ends at %v, deadline 60", e.End)
		}
	}
}

func TestSolveRelaxedInfeasibleReported(t *testing.T) {
	rp := relaxedFixture(t)
	// 80 existing + 50 current = 130 > 100: infeasible even modified.
	if _, err := core.SolveRelaxedContext(context.Background(), rp, core.RelaxedOptions{}); err == nil {
		t.Fatal("overfull system accepted")
	}
}

func TestSolveRelaxedCostOrdering(t *testing.T) {
	// Two existing applications with different costs; modifying either
	// one frees enough room. The cheaper one must be chosen.
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2) // round 20
	// Each existing application occupies the head of one node; the
	// current application needs to start at t=0 somewhere (deadline 60),
	// so exactly one of them must make way — either works.
	ga := b.App("exp").Graph("G1", 100, 100)
	ga.Proc("A", map[model.NodeID]tm.Time{n0: 40})
	gc := b.App("cheap").Graph("G2", 100, 100)
	gc.Proc("C", map[model.NodeID]tm.Time{n1: 40})
	gb := b.App("current").Graph("G3", 100, 60)
	gb.Proc("B", map[model.NodeID]tm.Time{n0: 60, n1: 60})
	sys := b.MustSystem()

	prof := future.PaperProfile(100, 10, 2)
	prof.WCET = []future.Bin{{Size: 10, Prob: 1}}
	rp := &core.RelaxedProblem{
		Sys:  sys,
		Base: mustMapExisting(t, sys, sys.Apps[:2]),
		Existing: []core.ExistingApp{
			{App: sys.Apps[0], Cost: 50},
			{App: sys.Apps[1], Cost: 3},
		},
		Current: sys.Apps[2],
		Profile: prof,
		Weights: metrics.DefaultWeights(prof),
	}
	sol, err := core.SolveRelaxedContext(context.Background(), rp, core.RelaxedOptions{})
	if err != nil {
		t.Fatalf("SolveRelaxedContext: %v", err)
	}
	// The empty subset fails (no node is free at t=0); {cheap} (cost 3)
	// is tried before {exp} (cost 50) and succeeds, so the solver must
	// modify only the cheap application.
	if sol.Cost != 3 || len(sol.Modified) != 1 || sol.Modified[0] != sys.Apps[1].ID {
		t.Errorf("modified %v at cost %v; want the cheap application only", sol.Modified, sol.Cost)
	}
	apps := []*model.Application{sys.Apps[0], sys.Apps[1], sys.Apps[2]}
	if err := checkSchedule(sol.State, apps...); err != nil {
		t.Fatalf("relaxed schedule invalid: %v", err)
	}
}
