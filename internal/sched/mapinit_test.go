package sched

import (
	"testing"

	"incdes/internal/model"
	"incdes/internal/tm"
)

func TestMapAppPicksFasterNode(t *testing.T) {
	var p model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p = g.Proc("P", map[model.NodeID]tm.Time{n0: 50, n1: 20})
	})
	st := mustState(t, sys)
	mapping, err := st.MapApp(sys.Apps[0], Hints{})
	if err != nil {
		t.Fatalf("MapApp: %v", err)
	}
	if mapping[p] != 1 {
		t.Errorf("mapped to node %d, want 1 (WCET 20 vs 50)", mapping[p])
	}
}

func TestMapAppBalancesIndependentLoad(t *testing.T) {
	var ps []model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		for i := 0; i < 4; i++ {
			ps = append(ps, g.UniformProc("P", 40))
		}
	})
	st := mustState(t, sys)
	mapping, err := st.MapApp(sys.Apps[0], Hints{})
	if err != nil {
		t.Fatalf("MapApp: %v", err)
	}
	// Four independent 40-tu processes in a 100-tu period only fit 2+2.
	count := map[model.NodeID]int{}
	for _, p := range ps {
		count[mapping[p]]++
	}
	if count[0] != 2 || count[1] != 2 {
		t.Errorf("load split = %v, want 2+2", count)
	}
}

func TestMapAppAvoidsOccupiedNode(t *testing.T) {
	var pa, pb model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		ga := b.App("existing").Graph("G1", 100, 100)
		pa = ga.Proc("A", map[model.NodeID]tm.Time{n0: 90})
		gb := b.App("current").Graph("G2", 100, 100)
		pb = gb.UniformProc("B", 50)
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{pa: 0}, Hints{}); err != nil {
		t.Fatal(err)
	}
	mapping, err := st.MapApp(sys.Apps[1], Hints{})
	if err != nil {
		t.Fatalf("MapApp: %v", err)
	}
	if mapping[pb] != 1 {
		t.Errorf("B mapped to node %d, want 1 (node 0 is 90%% occupied)", mapping[pb])
	}
}

func TestMapAppWeighsCommunication(t *testing.T) {
	// P1 fixed on node 0; P2 slightly slower on node 0 but co-location
	// avoids a bus round trip, so node 0 should win.
	var p1, p2 model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 200, 200)
		p1 = g.Proc("P1", map[model.NodeID]tm.Time{n0: 10})
		p2 = g.Proc("P2", map[model.NodeID]tm.Time{n0: 14, n1: 10})
		g.Msg(p1, p2, 4)
	})
	st := mustState(t, sys)
	mapping, err := st.MapApp(sys.Apps[0], Hints{})
	if err != nil {
		t.Fatalf("MapApp: %v", err)
	}
	if mapping[p2] != 0 {
		t.Errorf("P2 mapped to node %d, want 0: finish on node 0 is 24, via bus 40", mapping[p2])
	}
}

func TestMapAppFailsWhenOverloaded(t *testing.T) {
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		for i := 0; i < 5; i++ {
			g.UniformProc("P", 60) // 300 tu of work, 200 tu of capacity
		}
	})
	st := mustState(t, sys)
	if _, err := st.MapApp(sys.Apps[0], Hints{}); err == nil {
		t.Error("overload not detected")
	}
}

func TestMapAppConsistentAcrossOccurrences(t *testing.T) {
	var p model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p = g.UniformProc("P", 10)
		g2 := b.App("b").Graph("H", 400, 400)
		g2.Proc("Q", map[model.NodeID]tm.Time{n1: 10})
	})
	st := mustState(t, sys)
	mapping, err := st.MapApp(sys.Apps[0], Hints{})
	if err != nil {
		t.Fatal(err)
	}
	// All 4 occurrences must run on the same node.
	for _, e := range st.ProcEntries() {
		if e.Proc == p && e.Node != mapping[p] {
			t.Errorf("occ %d on node %d, mapping says %d", e.Occ, e.Node, mapping[p])
		}
	}
	if got := len(st.ProcEntries()); got != 4 {
		t.Errorf("%d entries, want 4", got)
	}
}

func TestPrioritiesDecreaseAlongEdges(t *testing.T) {
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 200, 200)
		p1 := g.UniformProc("P1", 20)
		p2 := g.UniformProc("P2", 30)
		p3 := g.UniformProc("P3", 25)
		p4 := g.UniformProc("P4", 20)
		g.Msg(p1, p2, 4)
		g.Msg(p1, p3, 4)
		g.Msg(p2, p4, 4)
		g.Msg(p3, p4, 4)
	})
	g := sys.Apps[0].Graphs[0]
	prio := Priorities(g, sys.Arch.Buses[0])
	for _, m := range g.Msgs {
		if prio[m.Src] <= prio[m.Dst] {
			t.Errorf("priority(%d)=%v not greater than priority(%d)=%v",
				m.Src, prio[m.Src], m.Dst, prio[m.Dst])
		}
	}
}

func TestPrioritiesChainValue(t *testing.T) {
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 200, 200)
		p1 := g.UniformProc("P1", 20)
		p2 := g.UniformProc("P2", 30)
		g.Msg(p1, p2, 4)
	})
	g := sys.Apps[0].Graphs[0]
	prio := Priorities(g, sys.Arch.Buses[0])
	// CommEstimate = 4 bytes * 1 tu + round(20)/2 = 14.
	// prio(P2) = 30; prio(P1) = 20 + 14 + 30 = 64.
	if prio[g.Procs[1].ID] != 30 {
		t.Errorf("prio(P2) = %v, want 30", prio[g.Procs[1].ID])
	}
	if prio[g.Procs[0].ID] != 64 {
		t.Errorf("prio(P1) = %v, want 64", prio[g.Procs[0].ID])
	}
}
