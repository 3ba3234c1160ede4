package core_test

import (
	"incdes/internal/core"
	"testing"

	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// TestClassicExample pins down the paper's slide-5 "classic mapping and
// scheduling" flow: a diamond graph on two nodes with slot order (S1, S0)
// — byte time 2, slot overhead 2, 8-byte slots, hence 18 tu slots and a
// 36 tu round. The mapping heuristic balances the diamond across both
// nodes (the pure finish-time mapping would co-locate everything on N0
// and leave node N1's periodic slack to chance). The expected schedule
// was verified by hand:
//
//	P1 on N0 [0,20)        (faster there: 20 vs 30)
//	m1,m2 in N0's slot of round 1 (first N0 slot start >= 20 is t=54),
//	       arriving at 72
//	P2 on N1 [72,102), P3 on N1 [102,127)
//	m3 in N1's slot of round 3 (start 108 >= 102), arriving 126
//	m4 in N1's slot of round 4 (start 144 >= 127), arriving 162
//	P4 on N0 [162,182)
func TestClassicExample(t *testing.T) {
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n1, n0}, []int{8, 8}, 2, 2)
	app := b.App("diamond")
	g := app.Graph("G1", 360, 360)
	p1 := g.Proc("P1", map[model.NodeID]tm.Time{n0: 20, n1: 30})
	p2 := g.Proc("P2", map[model.NodeID]tm.Time{n0: 40, n1: 30})
	p3 := g.Proc("P3", map[model.NodeID]tm.Time{n0: 30, n1: 25})
	p4 := g.Proc("P4", map[model.NodeID]tm.Time{n0: 20, n1: 20})
	m1 := g.Msg(p1, p2, 4)
	m2 := g.Msg(p1, p3, 4)
	m3 := g.Msg(p2, p4, 4)
	m4 := g.Msg(p3, p4, 4)
	sys := b.MustSystem()

	base, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	prof := future.PaperProfile(90, 20, 8)
	prof.WCET = []future.Bin{{Size: 10, Prob: 0.5}, {Size: 20, Prob: 0.5}}
	p, err := core.NewProblem(sys, base, sys.Apps[0], prof, metrics.DefaultWeights(prof))
	if err != nil {
		t.Fatal(err)
	}

	sol, err := solveSerial(p, core.MHWith(core.MHOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSchedule(sol.State, sys.Apps...); err != nil {
		t.Fatalf("classic schedule invalid: %v", err)
	}

	wantNode := map[model.ProcID]model.NodeID{p1: n0, p2: n1, p3: n1, p4: n0}
	for proc, node := range wantNode {
		if sol.Mapping[proc] != node {
			t.Errorf("P%d mapped to N%d, want N%d", proc+1, sol.Mapping[proc], node)
		}
	}

	wantStart := map[model.ProcID]tm.Time{p1: 0, p2: 72, p3: 102, p4: 162}
	for _, e := range sol.State.ProcEntries() {
		if want, ok := wantStart[e.Proc]; ok && e.Start != want {
			t.Errorf("P%d starts at %v, want %v", e.Proc+1, e.Start, want)
		}
	}

	wantArrive := map[model.MsgID]tm.Time{m1: 72, m2: 72, m3: 126, m4: 162}
	got := map[model.MsgID]tm.Time{}
	for _, e := range sol.State.MsgEntries() {
		got[e.Msg] = e.Arrive
	}
	for m, want := range wantArrive {
		if got[m] != want {
			t.Errorf("m%d arrives at %v, want %v", m+1, got[m], want)
		}
	}

	// The slack after the application is one contiguous tail on each
	// node, so the whole future demand packs: C = 0.
	if sol.Report.Objective != 0 {
		t.Errorf("classic example objective = %v, want 0 (%v)", sol.Report.Objective, sol.Report)
	}
}
