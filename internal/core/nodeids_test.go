package core_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// relabeledProblem is a generated 3-cluster problem whose node IDs are
// moved to non-contiguous values listed out of order: the system is
// copied through JSON, every node ID is replaced (nodes, slot owners,
// WCET tables), and the existing applications are mapped afresh onto a
// new base.
func relabeledProblem(t *testing.T, seed int64) *core.Problem {
	t.Helper()
	cfg := gen.Multicluster(3, 3, 0.25)
	cfg.GraphMinProcs = 4
	cfg.GraphMaxProcs = 10
	tc, err := gen.MakeTestCase(cfg, seed, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tc.Sys)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := model.ReadSystem(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	newIDs := []model.NodeID{40, 2, 5, 77, 13, 91, 28, 64, 9, 50, 33, 71}
	ids := sys.Arch.NodeIDs()
	if len(ids) > len(newIDs) {
		t.Fatalf("%d nodes, more than the %d new IDs", len(ids), len(newIDs))
	}
	relabel := map[model.NodeID]model.NodeID{}
	for i, n := range ids {
		relabel[n] = newIDs[i]
	}
	for _, n := range sys.Arch.Nodes {
		n.ID = relabel[n.ID]
	}
	for _, b := range sys.Arch.Buses {
		for i, owner := range b.SlotOrder {
			b.SlotOrder[i] = relabel[owner]
		}
	}
	for _, a := range sys.Apps {
		for _, g := range a.Graphs {
			for _, p := range g.Procs {
				wcet := make(map[model.NodeID]tm.Time, len(p.WCET))
				for n, w := range p.WCET {
					wcet[relabel[n]] = w
				}
				p.WCET = wcet
			}
		}
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	base, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sys.Apps[:len(sys.Apps)-1] {
		if _, err := base.MapApp(a, sched.Hints{}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := core.NewProblem(sys, base, sys.Apps[len(sys.Apps)-1], tc.Profile, metrics.DefaultWeights(tc.Profile))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSolveNonContiguousNodeIDs runs MH and SA on an architecture whose
// node IDs are not 0..N-1: the node timelines and the route table are
// indexed by node position, so each solution must still pass the
// schedule oracle, and every node's Busy timeline must hold exactly the
// process entries placed on that node. A node the architecture lacks
// has no timeline.
func TestSolveNonContiguousNodeIDs(t *testing.T) {
	p := relabeledProblem(t, 21)
	for _, s := range []struct {
		name  string
		strat core.Strategy
	}{
		{"MH", core.MHWith(core.MHOptions{MaxIterations: 6})},
		{"SA", core.SAWith(core.SAOptions{Seed: 3, Iterations: 600, Restarts: 2})},
	} {
		t.Run(s.name, func(t *testing.T) {
			sol := runSolve(t, p, core.Options{Strategy: s.strat, Parallelism: 2})
			t.Logf("%d evaluations, objective %v, %d nodes", sol.Evaluations, sol.Objective(), len(p.Sys.Arch.Nodes))
			if sol.Evaluations < 2 {
				t.Fatalf("%d evaluations: the strategy explored nothing", sol.Evaluations)
			}
			if err := checkSchedule(sol.State, allApps(p)...); err != nil {
				t.Fatalf("%s schedule invalid: %v", s.name, err)
			}
			hops := 0
			for _, e := range sol.State.MsgEntries() {
				hops = max(hops, e.Hop+1)
			}
			if hops < 2 {
				t.Error("no message crosses a gateway: the route table is not exercised")
			}
			for _, n := range p.Sys.Arch.NodeIDs() {
				var own []tm.Interval
				for _, e := range sol.State.ProcEntries() {
					if e.Node == n {
						own = append(own, tm.Iv(e.Start, e.End))
					}
				}
				slices.SortFunc(own, func(a, b tm.Interval) int { return int(a.Start - b.Start) })
				want := tm.NewSet()
				for _, iv := range own {
					want.Add(iv)
				}
				if got := sol.State.Busy(n).Intervals(); !reflect.DeepEqual(got, want.Intervals()) {
					t.Errorf("node %d: Busy holds %v, its entries %v", n, got, want.Intervals())
				}
			}
			if sol.State.Busy(0) != nil || sol.State.Busy(3) != nil {
				t.Error("Busy returns a timeline for a node the architecture lacks")
			}
		})
	}
}
