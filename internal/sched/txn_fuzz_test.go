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

// fuzzMove draws a move over app: a process to one of its allowed nodes
// (or, one draw in eight, to a node that does not exist, which makes the
// design infeasible) with a start hint, or a message to a start hint.
func fuzzMove(rng *rand.Rand, app *model.Application) sched.Move {
	g := app.Graphs[rng.Intn(len(app.Graphs))]
	if len(g.Msgs) > 0 && rng.Intn(3) == 0 {
		m := g.Msgs[rng.Intn(len(g.Msgs))]
		return sched.Move{Kind: sched.MoveMsg, Msg: m.ID, Start: tm.Time(rng.Int63n(int64(g.Period)))}
	}
	p := g.Procs[rng.Intn(len(g.Procs))]
	nodes := p.AllowedNodes()
	node := nodes[rng.Intn(len(nodes))]
	if rng.Intn(8) == 0 {
		node = 1 << 20
	}
	return sched.Move{Kind: sched.MoveProc, Proc: p.ID, Node: node, Start: tm.Time(rng.Int63n(int64(g.Period)))}
}

// FuzzTxnUndo drives one transaction with a byte-coded sequence of
// Apply calls (random mappings and hints of a generated case's current
// application, feasible or not), initial mappings held by Map,
// re-places of the held placement, savepoints, undo to a savepoint,
// Rollback and Commit. Undo must restore the state's fingerprint, the
// bus deltas and the dirty nodes exactly as they were when the
// savepoint was taken; Rollback must restore the fingerprint at Begin.
// Every fingerprint taken must also equal the fmt reference renderer's
// bytes.
//
// Map, with random hints, must place and map what MapApp does on a
// clone of the state, and fail when it fails; the design it returns is
// then the held one that a re-place moves. Commit must keep the state
// and detach the transaction: the next Begin holds nothing.
//
// A re-place changes the design the transaction placed last by two
// random moves, one applied to the dense design (Design.With) and one
// passed over it, and re-places from a random job no later than the
// first job either move reaches (from job 0 when nothing is held). The
// design is a vector over the held placement's job order, or over one
// built for the test when nothing was placed yet. When it succeeds the
// state must equal a clone of the state before the held placement with
// the new design, as maps, applied by ScheduleApp; when it fails,
// ScheduleApp must fail too.
//
// Op codes, one byte each (the next byte is the op's argument):
//
//	0 Apply, argument seeds the mapping and hints
//	1 take a savepoint
//	2 undo to a savepoint, argument picks which
//	3 Rollback and Begin again
//	4 re-place, argument seeds the moves and the job
//	5 Map, argument seeds the hints
//	6 Commit and Begin again
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
	f.Add([]byte{0, 1, 4, 0, 4, 1, 1, 0, 4, 2, 4, 3, 2, 0, 4, 4, 3, 0, 4, 5})
	f.Add([]byte{4, 9, 1, 0, 4, 10, 4, 11, 1, 0, 4, 12, 2, 0, 2, 1, 0, 13, 4, 14, 4, 15})
	f.Add([]byte{5, 1, 4, 16, 1, 0, 4, 17, 2, 0, 6, 0, 5, 18, 4, 19, 3, 0, 5, 20, 5, 21, 6, 0})
	f.Add([]byte{1, 0, 5, 22, 1, 0, 0, 23, 4, 24, 2, 1, 4, 25, 2, 0, 6, 0, 4, 26, 3, 0})

	app := tc.Current
	appOrder, err := tc.Base.Order(app)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		st := tc.Base.Clone() // a failed input must not leave its transaction open for the next
		txn := st.Begin()
		begun := pre // the fingerprint at Begin
		type mark struct {
			sp   sched.Savepoint
			view txnView
		}
		var marks []mark
		// The design Apply or the last re-place gave the held placement.
		var heldMapping model.Mapping
		var heldHints sched.Hints
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			switch ops[i] % 7 {
			case 0:
				rng := rand.New(rand.NewSource(int64(arg)))
				heldMapping, heldHints = randomMapping(rng, app), fuzzHints(rng, app)
				_ = txn.Apply(app, heldMapping, heldHints)
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
				if !bytes.Equal(checkedFingerprint(t, st), begun) {
					t.Fatalf("op %d: rollback did not restore the pre-Begin state", i/2)
				}
				marks = marks[:0]
				txn = st.Begin()
			case 4:
				rng := rand.New(rand.NewSource(int64(arg)))
				ord := txn.HeldOrder()
				if ord == nil {
					ord = appOrder
				}
				want := st.Clone()
				from := 0
				start, held := txn.HeldStart(ord)
				if held {
					want.UndoTo(start)
				} else {
					heldMapping, heldHints = randomMapping(rng, app), fuzzHints(rng, app)
				}
				mv1, mv2 := fuzzMove(rng, app), fuzzMove(rng, app)
				if held {
					from = rng.Intn(min(ord.MoveJob(mv1), ord.MoveJob(mv2)) + 1)
					// The undo reaches no savepoint at or before the job.
					for len(marks) > 0 && marks[len(marks)-1].sp.Procs() > start.Procs()+from {
						marks = marks[:len(marks)-1]
					}
				}
				err := txn.Replace(from, ord.Design(heldMapping, heldHints).With(mv1), mv2)
				heldMapping, heldHints = mv2.Apply(mv1.Apply(heldMapping, heldHints))
				wantErr := want.ScheduleApp(app, heldMapping, heldHints)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("op %d: re-place error %v, applying the design afresh: %v", i/2, err, wantErr)
				}
				if err == nil && !bytes.Equal(checkedFingerprint(t, st), checkedFingerprint(t, want)) {
					t.Fatalf("op %d: re-place from job %d differs from applying the design afresh", i/2, from)
				}
			case 5:
				hints := fuzzHints(rand.New(rand.NewSource(int64(arg))), app)
				want := st.Clone()
				wantMapping, wantErr := want.MapApp(app, hints)
				d, err := txn.Map(appOrder.Design(nil, hints))
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("op %d: Map error %v, MapApp: %v", i/2, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !bytes.Equal(checkedFingerprint(t, st), checkedFingerprint(t, want)) {
					t.Fatalf("op %d: Map placed other than MapApp", i/2)
				}
				if got := d.Mapping(); !reflect.DeepEqual(got, wantMapping) {
					t.Fatalf("op %d: Map chose %v, MapApp %v", i/2, got, wantMapping)
				}
				heldMapping, heldHints = wantMapping, hints
			case 6:
				before := append([]byte(nil), checkedFingerprint(t, st)...)
				txn.Commit()
				if !bytes.Equal(checkedFingerprint(t, st), before) {
					t.Fatalf("op %d: Commit changed the state", i/2)
				}
				next := st.Begin()
				if next == txn || next.HeldOrder() != nil {
					t.Fatalf("op %d: Begin after Commit reopened the committed transaction", i/2)
				}
				txn, begun, marks = next, before, marks[:0]
			}
		}
		txn.Rollback()
		if !bytes.Equal(checkedFingerprint(t, st), begun) {
			t.Fatal("final rollback did not restore the pre-Begin state")
		}
	})
}
