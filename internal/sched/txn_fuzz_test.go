package sched_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"incdes/internal/gen"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// fuzzHints draws start-offset hints for some processes and messages of
// app, within each graph's period: hints that cannot be honored fall
// back inside the scheduler, so every draw is a legal input.
func fuzzHints(rng *rand.Rand, app *model.Application) sched.Hints {
	h := sched.Hints{}
	for _, g := range app.Graphs {
		for _, p := range g.Procs {
			if rng.Intn(3) == 0 {
				h = h.SetProcStart(p.ID, tm.Time(rng.Int63n(int64(g.Period))))
			}
		}
		for _, m := range g.Msgs {
			if rng.Intn(3) == 0 {
				h = h.SetMsgStart(m.ID, tm.Time(rng.Int63n(int64(g.Period))))
			}
		}
	}
	return h
}

// txnView is what a savepoint must restore: the serialized state and the
// transaction's footprint.
type txnView struct {
	fingerprint []byte
	deltas      []sched.MsgEntry
	dirty       []model.NodeID
}

func viewOf(t testing.TB, st *sched.State, txn *sched.Txn) txnView {
	return txnView{
		fingerprint: append([]byte(nil), checkedFingerprint(t, st)...),
		deltas:      append([]sched.MsgEntry{}, txn.BusDeltas()...),
		dirty:       txn.DirtyNodes(),
	}
}

// FuzzTxnUndo drives one transaction with a byte-coded sequence of
// Apply calls (random mappings and hints of a generated case's current
// application, feasible or not), savepoints, undo to a savepoint, and
// Rollback. Undo must restore the state's fingerprint, the bus deltas
// and the dirty nodes exactly as they were when the savepoint was
// taken; Rollback must restore the pre-Begin fingerprint. Every
// fingerprint taken must also equal the fmt reference renderer's bytes.
//
// Op codes, one byte each (the next byte is the op's argument):
//
//	0 Apply, argument seeds the mapping and hints
//	1 take a savepoint
//	2 undo to a savepoint, argument picks which
//	3 Rollback and Begin again
func FuzzTxnUndo(f *testing.F) {
	tc, err := gen.MakeTestCase(quickConfig(), 5, 40, 12)
	if err != nil {
		f.Fatal(err)
	}
	pre := append([]byte(nil), checkedFingerprint(f, tc.Base)...)

	f.Add([]byte{1, 0, 0, 1, 2, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 2, 0, 2, 1, 1, 0})
	f.Add([]byte{1, 0, 0, 3, 1, 0, 0, 4, 0, 5, 2, 1, 2, 0})
	f.Add([]byte{0, 7, 3, 0, 1, 0, 0, 9, 1, 0, 0, 11, 2, 2, 2, 1, 2, 0, 3, 0})
	f.Add([]byte{1, 0, 0, 13, 0, 14, 1, 0, 0, 15, 2, 0, 0, 16, 2, 1})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		st := tc.Base.Clone() // a failed input must not leave its transaction open for the next
		txn := st.Begin()
		type mark struct {
			sp   sched.Savepoint
			view txnView
		}
		var marks []mark
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			switch ops[i] % 4 {
			case 0:
				rng := rand.New(rand.NewSource(int64(arg)))
				_ = txn.Apply(tc.Current, randomMapping(rng, tc.Current), fuzzHints(rng, tc.Current))
			case 1:
				marks = append(marks, mark{txn.Mark(), viewOf(t, st, txn)})
			case 2:
				if len(marks) == 0 {
					continue
				}
				k := int(arg) % len(marks)
				txn.Undo(marks[k].sp)
				got, want := viewOf(t, st, txn), marks[k].view
				if !bytes.Equal(got.fingerprint, want.fingerprint) {
					t.Fatalf("op %d: undo to savepoint %d did not restore the state", i/2, k)
				}
				if !reflect.DeepEqual(got.deltas, want.deltas) {
					t.Fatalf("op %d: undo to savepoint %d: bus deltas %v, want %v", i/2, k, got.deltas, want.deltas)
				}
				if !reflect.DeepEqual(got.dirty, want.dirty) {
					t.Fatalf("op %d: undo to savepoint %d: dirty nodes %v, want %v", i/2, k, got.dirty, want.dirty)
				}
				// Savepoints taken after this one point past the log now.
				marks = marks[:k+1]
			case 3:
				txn.Rollback()
				if !bytes.Equal(checkedFingerprint(t, st), pre) {
					t.Fatalf("op %d: rollback did not restore the pre-Begin state", i/2)
				}
				marks = marks[:0]
				txn = st.Begin()
			}
		}
		txn.Rollback()
		if !bytes.Equal(checkedFingerprint(t, st), pre) {
			t.Fatal("final rollback did not restore the pre-Begin state")
		}
	})
}
