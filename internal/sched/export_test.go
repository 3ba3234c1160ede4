package sched

import "incdes/internal/model"

// Savepoint, Mark and Undo expose the state's unexported savepoints to
// the external tests through the transaction (FuzzTxnUndo needs a
// generated case, and package gen imports sched).
type Savepoint = savepoint

func (sp savepoint) Procs() int  { return sp.procs }
func (t *Txn) Mark() Savepoint   { return t.st.mark() }
func (t *Txn) Undo(sp Savepoint) { t.st.undo(sp) }

// HeldStart returns where the placement Replace would re-place for app
// starts; false when Replace would place app anew at the end.
func (t *Txn) HeldStart(app *model.Application) (Savepoint, bool) {
	if !t.holds(app) {
		return Savepoint{}, false
	}
	return t.held.marks[0], true
}

// UndoTo takes the state back to sp.
func (s *State) UndoTo(sp Savepoint) { s.undo(sp) }

// FingerprintFmt is the fmt reference renderer of State.Fingerprint.
func FingerprintFmt(s *State) []byte { return fingerprintFmt(s) }
