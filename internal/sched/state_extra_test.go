package sched

import (
	"bytes"
	"testing"

	"incdes/internal/model"
	"incdes/internal/tm"
)

func TestBusContentionPushesToNextRound(t *testing.T) {
	// Two producers on node 0 finish early and both send 6-byte messages
	// to node 1. One 8-byte slot holds only one of them, so the second
	// message must take node 0's slot in the following round.
	var p1, p2, c1, c2 model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 200, 200)
		p1 = g.Proc("P1", map[model.NodeID]tm.Time{n0: 5})
		p2 = g.Proc("P2", map[model.NodeID]tm.Time{n0: 5})
		c1 = g.Proc("C1", map[model.NodeID]tm.Time{n1: 5})
		c2 = g.Proc("C2", map[model.NodeID]tm.Time{n1: 5})
		g.Msg(p1, c1, 6)
		g.Msg(p2, c2, 6)
	})
	st := mustState(t, sys)
	mapping := model.Mapping{p1: 0, p2: 0, c1: 1, c2: 1}
	if err := st.ScheduleApp(sys.Apps[0], mapping, Hints{}); err != nil {
		t.Fatalf("ScheduleApp: %v", err)
	}
	rounds := map[int]bool{}
	for _, m := range st.MsgEntries() {
		if m.Slot != 0 {
			t.Errorf("message %d in slot %d, want node 0's slot 0", m.Msg, m.Slot)
		}
		if rounds[m.Round] {
			t.Errorf("two 6-byte messages share the 8-byte slot of round %d", m.Round)
		}
		rounds[m.Round] = true
	}
	if len(rounds) != 2 {
		t.Errorf("messages in %d distinct rounds, want 2", len(rounds))
	}
}

func TestFanOutSingleProducerManyConsumers(t *testing.T) {
	// One producer on node 0 feeds two consumers on node 1: two separate
	// messages (the model does not multicast), both in node 0's slots.
	var p, c1, c2 model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 200, 200)
		p = g.Proc("P", map[model.NodeID]tm.Time{n0: 10})
		c1 = g.Proc("C1", map[model.NodeID]tm.Time{n1: 10})
		c2 = g.Proc("C2", map[model.NodeID]tm.Time{n1: 10})
		g.Msg(p, c1, 4)
		g.Msg(p, c2, 4)
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p: 0, c1: 1, c2: 1}, Hints{}); err != nil {
		t.Fatal(err)
	}
	if got := len(st.MsgEntries()); got != 2 {
		t.Fatalf("%d message entries, want 2", got)
	}
	// Both 4-byte messages fit the same 8-byte slot occurrence.
	m0, m1 := st.MsgEntries()[0], st.MsgEntries()[1]
	if m0.Round != m1.Round || m0.Slot != m1.Slot {
		t.Errorf("fan-out messages in different occurrences: %+v vs %+v", m0, m1)
	}
}

func TestMultiplePeriodsInterleave(t *testing.T) {
	// A 100 tu graph and a 200 tu graph on one node: horizon 200, the
	// fast graph runs twice.
	var fast, slow model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g1 := b.App("a").Graph("fast", 100, 100)
		fast = g1.Proc("F", map[model.NodeID]tm.Time{n0: 30})
		g2 := b.App("b").Graph("slow", 200, 200)
		slow = g2.Proc("S", map[model.NodeID]tm.Time{n0: 60})
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{fast: 0}, Hints{}); err != nil {
		t.Fatal(err)
	}
	if err := st.ScheduleApp(sys.Apps[1], model.Mapping{slow: 0}, Hints{}); err != nil {
		t.Fatal(err)
	}
	if got := len(st.ProcEntries()); got != 3 {
		t.Fatalf("%d entries, want 3 (2 fast + 1 slow)", got)
	}
	// 30+30+60 = 120 busy over 200.
	if st.Busy(0).Total() != 120 {
		t.Errorf("busy total = %v, want 120", st.Busy(0).Total())
	}
}

func TestScheduleAppDeterministic(t *testing.T) {
	build := func() (*State, *model.System, model.Mapping) {
		var ps []model.ProcID
		sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
			g := b.App("a").Graph("G", 200, 200)
			prev := model.ProcID(-1)
			for i := 0; i < 6; i++ {
				p := g.UniformProc("P", tm.Time(10+i))
				ps = append(ps, p)
				if prev >= 0 {
					g.Msg(prev, p, 2)
				}
				prev = p
			}
		})
		mapping := model.Mapping{}
		for i, p := range ps {
			mapping[p] = model.NodeID(i % 2)
		}
		st := mustState(t, sys)
		return st, sys, mapping
	}
	st1, sys1, m1 := build()
	if err := st1.ScheduleApp(sys1.Apps[0], m1, Hints{}); err != nil {
		t.Fatal(err)
	}
	st2, sys2, m2 := build()
	if err := st2.ScheduleApp(sys2.Apps[0], m2, Hints{}); err != nil {
		t.Fatal(err)
	}
	if len(st1.ProcEntries()) != len(st2.ProcEntries()) {
		t.Fatal("different entry counts across identical runs")
	}
	for i := range st1.ProcEntries() {
		if st1.ProcEntries()[i] != st2.ProcEntries()[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, st1.ProcEntries()[i], st2.ProcEntries()[i])
		}
	}
}

func TestMapAppBanRetryRecovers(t *testing.T) {
	// Node 0 looks best for occurrence 0 (empty early on) but an existing
	// reservation blocks occurrence 1; node 1 works for both. MapApp
	// tries every occurrence on a node before binding the process, and
	// that all-occurrence trial is what rejects node 0.
	var blocker, p model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		ge := b.App("existing").Graph("E", 200, 200)
		blocker = ge.Proc("Block", map[model.NodeID]tm.Time{n0: 90})
		gc := b.App("current").Graph("C", 100, 100)
		p = gc.Proc("P", map[model.NodeID]tm.Time{n0: 20, n1: 40})
	})
	st := mustState(t, sys)
	// Pin the blocker into node 0's second window [110, 200).
	hints := Hints{}.SetProcStart(blocker, 105)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{blocker: 0}, hints); err != nil {
		t.Fatal(err)
	}
	mapping, err := st.MapApp(sys.Apps[1], Hints{})
	if err != nil {
		t.Fatalf("MapApp: %v", err)
	}
	// Node 0 window [100,200) has only [100,105) free: occurrence 1 of P
	// (20 tu) cannot fit there, so P must land on node 1.
	if mapping[p] != 1 {
		t.Errorf("P mapped to node %d, want 1 (node 0 blocked in occurrence 1)", mapping[p])
	}
}

func TestMapAppLeavesStateUntouchedOnFailure(t *testing.T) {
	var pa, pc model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		ga := b.App("existing").Graph("G1", 100, 100)
		pa = ga.Proc("A", map[model.NodeID]tm.Time{n0: 90})
		gb := b.App("current").Graph("G2", 100, 100)
		gb.Proc("B", map[model.NodeID]tm.Time{n0: 50})
		gc := b.App("other").Graph("G3", 100, 100)
		pc = gc.Proc("C", map[model.NodeID]tm.Time{n1: 30})
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{pa: 0}, Hints{}); err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), st.Fingerprint()...)
	if _, err := st.MapApp(sys.Apps[1], Hints{}); err == nil {
		t.Fatal("infeasible app mapped")
	}
	if got := st.Fingerprint(); !bytes.Equal(got, before) {
		t.Errorf("failed MapApp changed the state:\nbefore:\n%s\nafter:\n%s", before, got)
	}

	// The state stays usable for transactions: a feasible placement
	// applies and rolls back exactly.
	txn := st.Begin()
	if err := txn.Apply(sys.Apps[2], model.Mapping{pc: 1}, Hints{}); err != nil {
		t.Fatalf("Apply after a failed MapApp: %v", err)
	}
	if bytes.Equal(st.Fingerprint(), before) {
		t.Fatal("Apply left no trace in the state; the test proves nothing")
	}
	txn.Rollback()
	if got := st.Fingerprint(); !bytes.Equal(got, before) {
		t.Errorf("Begin/Apply/Rollback after a failed MapApp did not restore the state:\nbefore:\n%s\nafter:\n%s", before, got)
	}
}

func TestRestrictKeepsExactPlacements(t *testing.T) {
	var pa, pb model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		ga := b.App("keep").Graph("G1", 100, 100)
		pa = ga.Proc("A", map[model.NodeID]tm.Time{n0: 20})
		gb := b.App("drop").Graph("G2", 100, 100)
		pb = gb.Proc("B", map[model.NodeID]tm.Time{n0: 30})
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{pa: 0}, Hints{}.SetProcStart(pa, 40)); err != nil {
		t.Fatal(err)
	}
	if err := st.ScheduleApp(sys.Apps[1], model.Mapping{pb: 0}, Hints{}); err != nil {
		t.Fatal(err)
	}
	kept, err := Restrict(st, sys, func(id model.AppID) bool { return id == sys.Apps[0].ID })
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if len(kept.ProcEntries()) != 1 {
		t.Fatalf("%d entries kept, want 1", len(kept.ProcEntries()))
	}
	e := kept.ProcEntries()[0]
	if e.Proc != pa || e.Start != 40 {
		t.Errorf("kept entry = %+v, want A at 40 (exact shipped position)", e)
	}
	if kept.Busy(0).Total() != 20 {
		t.Errorf("busy total = %v, want 20", kept.Busy(0).Total())
	}
	// The dropped application's slot is free again: B can be re-placed
	// at its original position or earlier.
	if _, err := kept.MapApp(sys.Apps[1], Hints{}); err != nil {
		t.Fatalf("re-mapping dropped app: %v", err)
	}
	// The original state is untouched.
	if len(st.ProcEntries()) != 2 {
		t.Error("Restrict modified the source state")
	}
}

func TestRestrictCopiesBusReservations(t *testing.T) {
	var p1, p2 model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("keep").Graph("G", 100, 100)
		p1 = g.Proc("P1", map[model.NodeID]tm.Time{n0: 10})
		p2 = g.Proc("P2", map[model.NodeID]tm.Time{n1: 10})
		g.Msg(p1, p2, 4)
	})
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p1: 0, p2: 1}, Hints{}); err != nil {
		t.Fatal(err)
	}
	kept, err := Restrict(st, sys, func(model.AppID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.MsgEntries()) != 1 {
		t.Fatalf("%d msg entries kept", len(kept.MsgEntries()))
	}
	m := kept.MsgEntries()[0]
	if got := kept.BusStateAt(0).Used(m.Round, m.Slot); got != 4 {
		t.Errorf("bus reservation not copied: used = %d", got)
	}
}
