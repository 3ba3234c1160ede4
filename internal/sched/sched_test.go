package sched

import (
	"bytes"
	"testing"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// buildSys assembles a two-node system whose bus round is 20 tu:
// slot order (N0, N1), 8 bytes per slot, 1 tu per byte, 2 tu overhead.
// The configure callback adds applications.
func buildSys(t *testing.T, configure func(b *model.Builder, n0, n1 model.NodeID)) *model.System {
	t.Helper()
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2)
	configure(b, n0, n1)
	sys, err := b.System()
	if err != nil {
		t.Fatalf("building system: %v", err)
	}
	return sys
}

func mustState(t *testing.T, sys *model.System) *State {
	t.Helper()
	st, err := NewState(sys)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	return st
}

func TestScheduleSingleProcess(t *testing.T) {
	var p model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p = g.Proc("P", map[model.NodeID]tm.Time{n0: 30})
	})
	st := mustState(t, sys)
	if st.Horizon() != 100 {
		t.Fatalf("horizon = %v, want 100", st.Horizon())
	}
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p: 0}, Hints{}); err != nil {
		t.Fatalf("ScheduleApp: %v", err)
	}
	entries := st.ProcEntries()
	if len(entries) != 1 {
		t.Fatalf("%d proc entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Start != 0 || e.End != 30 || e.Node != 0 {
		t.Errorf("entry = %+v, want start 0 end 30 node 0", e)
	}
	if len(st.MsgEntries()) != 0 {
		t.Errorf("unexpected bus traffic: %v", st.MsgEntries())
	}
}

func TestScheduleChainSameNode(t *testing.T) {
	var p1, p2 model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p1 = g.Proc("P1", map[model.NodeID]tm.Time{n0: 10})
		p2 = g.Proc("P2", map[model.NodeID]tm.Time{n0: 15})
		g.Msg(p1, p2, 4)
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p1: 0, p2: 0}, Hints{}); err != nil {
		t.Fatalf("ScheduleApp: %v", err)
	}
	if len(st.MsgEntries()) != 0 {
		t.Error("co-located processes used the bus")
	}
	ends := map[model.ProcID]tm.Time{}
	starts := map[model.ProcID]tm.Time{}
	for _, e := range st.ProcEntries() {
		ends[e.Proc] = e.End
		starts[e.Proc] = e.Start
	}
	if starts[p2] < ends[p1] {
		t.Errorf("P2 starts at %v before P1 ends at %v", starts[p2], ends[p1])
	}
	if starts[p2] != 10 || ends[p2] != 25 {
		t.Errorf("P2 = [%v,%v), want [10,25)", starts[p2], ends[p2])
	}
}

func TestScheduleChainAcrossBus(t *testing.T) {
	var p1, p2 model.ProcID
	var mid model.MsgID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p1 = g.Proc("P1", map[model.NodeID]tm.Time{n0: 10})
		p2 = g.Proc("P2", map[model.NodeID]tm.Time{n1: 15})
		mid = g.Msg(p1, p2, 4)
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p1: 0, p2: 1}, Hints{}); err != nil {
		t.Fatalf("ScheduleApp: %v", err)
	}
	msgs := st.MsgEntries()
	if len(msgs) != 1 {
		t.Fatalf("%d msg entries, want 1", len(msgs))
	}
	m := msgs[0]
	if m.Msg != mid || m.Sender != 0 || m.Receiver != 1 {
		t.Errorf("msg entry = %+v", m)
	}
	// P1 ends at 10. Node 0 owns slot 0, starting at 0, 20, 40...
	// The first slot start >= 10 is round 1 (t=20), arriving at 30.
	if m.Round != 1 || m.Slot != 0 || m.Start != 20 || m.Arrive != 30 {
		t.Errorf("msg placed at round %d slot %d start %v arrive %v; want round 1 slot 0 [20,30)",
			m.Round, m.Slot, m.Start, m.Arrive)
	}
	for _, e := range st.ProcEntries() {
		if e.Proc == p2 && e.Start != 30 {
			t.Errorf("P2 starts at %v, want 30 (message arrival)", e.Start)
		}
	}
}

func TestScheduleMultipleOccurrences(t *testing.T) {
	var p model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 50)
		p = g.Proc("P", map[model.NodeID]tm.Time{n0: 30})
		// Second graph with a longer period forces a 200 tu horizon.
		g2 := b.App("b").Graph("H", 200, 200)
		g2.Proc("Q", map[model.NodeID]tm.Time{n1: 10})
	})
	st := mustState(t, sys)
	if st.Horizon() != 200 {
		t.Fatalf("horizon = %v", st.Horizon())
	}
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p: 0}, Hints{}); err != nil {
		t.Fatalf("ScheduleApp: %v", err)
	}
	entries := st.ProcEntries()
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2 occurrences", len(entries))
	}
	for _, e := range entries {
		release := tm.Time(e.Occ) * 100
		if e.Start < release {
			t.Errorf("occ %d starts at %v before release %v", e.Occ, e.Start, release)
		}
		if e.End > release+50 {
			t.Errorf("occ %d ends at %v after deadline %v", e.Occ, e.End, release+50)
		}
	}
}

func TestScheduleDeadlineMiss(t *testing.T) {
	var p1, p2 model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 45)
		// Two 30-tu processes restricted to the same node cannot both
		// finish within a 45-tu deadline.
		p1 = g.Proc("P1", map[model.NodeID]tm.Time{n0: 30})
		p2 = g.Proc("P2", map[model.NodeID]tm.Time{n0: 30})
	})
	st := mustState(t, sys)
	before := append([]byte(nil), st.Fingerprint()...)
	err := st.ScheduleApp(sys.Apps[0], model.Mapping{p1: 0, p2: 0}, Hints{})
	if err == nil {
		t.Fatal("deadline miss not detected")
	}
	// A failed ScheduleApp undoes its own partial placement (P1).
	if got := st.Fingerprint(); !bytes.Equal(got, before) {
		t.Errorf("failed ScheduleApp changed the state:\nbefore:\n%s\nafter:\n%s", before, got)
	}

	// The same contract when the failure comes after a message hop was
	// reserved: P (node 0, done at 10) sends to C in N0's round-1 slot
	// [20,30), and C's 75 tu on node 1 then end at 105, past the
	// deadline. Both P's interval and the hop must be taken back, and
	// the frozen application E must stay.
	var e, p, c model.ProcID
	sys = buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		e = b.App("existing").Graph("GE", 100, 100).Proc("E", map[model.NodeID]tm.Time{n1: 20})
		g := b.App("a").Graph("G", 100, 100)
		p = g.Proc("P", map[model.NodeID]tm.Time{n0: 10})
		c = g.Proc("C", map[model.NodeID]tm.Time{n1: 75})
		g.Msg(p, c, 4)
	})
	st = mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{e: 1}, Hints{}); err != nil {
		t.Fatal(err)
	}
	before = append([]byte(nil), st.Fingerprint()...)
	if err := st.ScheduleApp(sys.Apps[1], model.Mapping{p: 0, c: 1}, Hints{}); err == nil {
		t.Fatal("deadline miss after a reserved message hop not detected")
	}
	if got := st.Fingerprint(); !bytes.Equal(got, before) {
		t.Errorf("failed ScheduleApp left its placements behind:\nbefore:\n%s\nafter:\n%s", before, got)
	}
}

func TestScheduleRejectsUnmappedProcess(t *testing.T) {
	var p model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p = g.Proc("P", map[model.NodeID]tm.Time{n0: 10})
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{}, Hints{}); err == nil {
		t.Error("missing mapping accepted")
	}
	st = mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p: 1}, Hints{}); err == nil {
		t.Error("mapping to disallowed node accepted")
	}
}

func TestIncrementalReservations(t *testing.T) {
	var pa, pb model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		ga := b.App("existing").Graph("G1", 100, 100)
		pa = ga.Proc("A", map[model.NodeID]tm.Time{n0: 40})
		gb := b.App("current").Graph("G2", 100, 100)
		pb = gb.Proc("B", map[model.NodeID]tm.Time{n0: 30})
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{pa: 0}, Hints{}); err != nil {
		t.Fatalf("existing app: %v", err)
	}
	if err := st.ScheduleApp(sys.Apps[1], model.Mapping{pb: 0}, Hints{}); err != nil {
		t.Fatalf("current app: %v", err)
	}
	// B must start after A's reservation [0,40).
	for _, e := range st.ProcEntries() {
		if e.Proc == pb && e.Start != 40 {
			t.Errorf("B starts at %v, want 40 (after existing reservation)", e.Start)
		}
	}
	if st.Busy(0).Total() != 70 {
		t.Errorf("node 0 busy total = %v, want 70", st.Busy(0).Total())
	}
}

func TestProcStartHintMovesProcess(t *testing.T) {
	var p model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p = g.Proc("P", map[model.NodeID]tm.Time{n0: 10})
	})
	st := mustState(t, sys)
	hints := Hints{}.SetProcStart(p, 55)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p: 0}, hints); err != nil {
		t.Fatalf("ScheduleApp: %v", err)
	}
	if got := st.ProcEntries()[0].Start; got != 55 {
		t.Errorf("hinted start = %v, want 55", got)
	}
	// An infeasible hint (would miss the deadline) falls back to the
	// earliest feasible placement instead of failing the design.
	st = mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p: 0}, Hints{}.SetProcStart(p, 95)); err != nil {
		t.Fatalf("soft hint fallback failed: %v", err)
	}
	if got := st.ProcEntries()[0].Start; got != 0 {
		t.Errorf("fallback start = %v, want 0", got)
	}
}

func TestMsgStartHintMovesMessage(t *testing.T) {
	var p1, p2 model.ProcID
	var mid model.MsgID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p1 = g.Proc("P1", map[model.NodeID]tm.Time{n0: 10})
		p2 = g.Proc("P2", map[model.NodeID]tm.Time{n1: 10})
		mid = g.Msg(p1, p2, 4)
	})
	mapping := model.Mapping{p1: 0, p2: 1}

	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], mapping, Hints{}); err != nil {
		t.Fatal(err)
	}
	if st.MsgEntries()[0].Round != 1 {
		t.Fatalf("baseline round = %d, want 1", st.MsgEntries()[0].Round)
	}

	st = mustState(t, sys)
	hints := Hints{}.SetMsgStart(mid, 60) // node 0 slots start at 0,20,40,60: round 3
	if err := st.ScheduleApp(sys.Apps[0], mapping, hints); err != nil {
		t.Fatal(err)
	}
	if got := st.MsgEntries()[0].Round; got != 3 {
		t.Errorf("hinted round = %d, want 3", got)
	}
}

func TestHintSettersDoNotMutateOriginal(t *testing.T) {
	h := Hints{}
	h2 := h.SetProcStart(1, 10)
	if len(h.ProcStart) != 0 {
		t.Error("SetProcStart mutated receiver")
	}
	h3 := h2.SetProcStart(1, 0) // zero removes
	if len(h3.ProcStart) != 0 {
		t.Error("zero hint not removed")
	}
	h4 := h2.SetMsgStart(5, 7)
	if h4.MsgStart[5] != 7 || h4.ProcStart[1] != 10 {
		t.Error("SetMsgStart lost data")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	var p model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p = g.Proc("P", map[model.NodeID]tm.Time{n0: 10})
	})
	base := mustState(t, sys)
	clone := base.Clone()
	if err := clone.ScheduleApp(sys.Apps[0], model.Mapping{p: 0}, Hints{}); err != nil {
		t.Fatal(err)
	}
	if len(base.ProcEntries()) != 0 || base.Busy(0).Total() != 0 {
		t.Error("scheduling on clone modified base")
	}
	if len(clone.Mapping()) != 1 {
		t.Error("clone mapping not updated")
	}
	if len(base.Mapping()) != 0 {
		t.Error("base mapping leaked")
	}
}
