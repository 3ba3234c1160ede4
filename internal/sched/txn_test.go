package sched

import (
	"bytes"
	"testing"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// txnSys builds a two-node system with one frozen application "a" and a
// current application "b" whose processes can run on either node and
// exchange one message.
func txnSys(t *testing.T) (sys *model.System, mapA, mapB model.Mapping) {
	t.Helper()
	var ap, bp, bc model.ProcID
	sys = buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		ga := b.App("a").Graph("GA", 200, 200)
		ap = ga.Proc("AP", map[model.NodeID]tm.Time{n0: 20, n1: 20})
		gb := b.App("b").Graph("GB", 200, 200)
		bp = gb.Proc("BP", map[model.NodeID]tm.Time{n0: 10, n1: 10})
		bc = gb.Proc("BC", map[model.NodeID]tm.Time{n0: 10, n1: 10})
		gb.Msg(bp, bc, 4)
	})
	return sys, model.Mapping{ap: 0}, model.Mapping{bp: 0, bc: 1}
}

// txnBase returns a state with the frozen application already scheduled.
func txnBase(t *testing.T) (*State, *model.System, model.Mapping) {
	t.Helper()
	sys, mapA, mapB := txnSys(t)
	st := mustState(t, sys)
	if err := st.ScheduleApp(sys.Apps[0], mapA, Hints{}); err != nil {
		t.Fatalf("scheduling frozen app: %v", err)
	}
	return st, sys, mapB
}

func TestTxnCommitMatchesScheduleApp(t *testing.T) {
	st, sys, mapB := txnBase(t)
	ref := st.Clone()
	if err := ref.ScheduleApp(sys.Apps[1], mapB, Hints{}); err != nil {
		t.Fatalf("reference ScheduleApp: %v", err)
	}

	txn := st.Begin()
	if err := txn.Apply(sys.Apps[1], mapB, Hints{}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	txn.Commit()
	if !bytes.Equal(st.Fingerprint(), ref.Fingerprint()) {
		t.Errorf("committed transaction differs from plain ScheduleApp:\ntxn:\n%s\nref:\n%s",
			st.Fingerprint(), ref.Fingerprint())
	}
}

func TestTxnRollbackRestoresExactState(t *testing.T) {
	st, sys, mapB := txnBase(t)
	pre := append([]byte(nil), st.Fingerprint()...)

	txn := st.Begin()
	if err := txn.Apply(sys.Apps[1], mapB, Hints{}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if bytes.Equal(st.Fingerprint(), pre) {
		t.Fatal("Apply left no trace in the state; the test proves nothing")
	}
	txn.Rollback()
	if got := st.Fingerprint(); !bytes.Equal(got, pre) {
		t.Errorf("rollback did not restore the state:\npre:\n%s\npost:\n%s", pre, got)
	}

	// The state stays fully usable: the same transaction storage is
	// reused by the next Begin and commits cleanly.
	txn = st.Begin()
	if err := txn.Apply(sys.Apps[1], mapB, Hints{}); err != nil {
		t.Fatalf("Apply after rollback: %v", err)
	}
	txn.Commit()
}

func TestTxnRollbackAfterFailedApply(t *testing.T) {
	// A chain whose second process cannot meet the deadline: Apply fails
	// after partial placements, Rollback must still restore everything.
	var p, c model.ProcID
	sys := buildSys(t, func(b *model.Builder, n0, n1 model.NodeID) {
		g := b.App("a").Graph("G", 100, 100)
		p = g.Proc("P", map[model.NodeID]tm.Time{n0: 60})
		c = g.Proc("C", map[model.NodeID]tm.Time{n1: 60})
		g.Msg(p, c, 4)
	})
	st := mustState(t, sys)
	pre := append([]byte(nil), st.Fingerprint()...)

	txn := st.Begin()
	if err := txn.Apply(sys.Apps[0], model.Mapping{p: 0, c: 1}, Hints{}); err == nil {
		t.Fatal("Apply succeeded; the case was meant to be unschedulable")
	}
	txn.Rollback()
	if got := st.Fingerprint(); !bytes.Equal(got, pre) {
		t.Errorf("rollback after failed Apply did not restore the state:\npre:\n%s\npost:\n%s", pre, got)
	}
}

func TestTxnDirtyTracking(t *testing.T) {
	st, sys, mapB := txnBase(t)
	txn := st.Begin()
	defer txn.Rollback()
	if err := txn.Apply(sys.Apps[1], mapB, Hints{}); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	if !txn.DirtyNode(0) || !txn.DirtyNode(1) {
		t.Errorf("both nodes got a process, both must be dirty: %v", txn.DirtyNodes())
	}
	if got := txn.DirtyNodes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("DirtyNodes() = %v, want [0 1] ascending", got)
	}
	if txn.DirtyNodeCount() != 2 {
		t.Errorf("DirtyNodeCount() = %d, want 2", txn.DirtyNodeCount())
	}
	if d := txn.BusDeltas(); len(d) == 0 || d[0].Bus != 0 || d[0].Bytes != 4 {
		t.Errorf("the applied app sends one 4-byte message on bus 0; BusDeltas() = %+v", d)
	}
}

func TestTxnMisusePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}

	st, sys, mapB := txnBase(t)
	txn := st.Begin()
	expectPanic("double Begin", func() { st.Begin() })
	txn.Rollback()
	expectPanic("Rollback on closed txn", func() { txn.Rollback() })
	expectPanic("Commit on closed txn", func() { txn.Commit() })
	expectPanic("Apply on closed txn", func() { _ = txn.Apply(sys.Apps[1], mapB, Hints{}) })
}
