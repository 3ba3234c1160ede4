package sched

import (
	"maps"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Savepoint, Mark and Undo expose the state's unexported savepoints to
// the external tests through the transaction (FuzzTxnUndo needs a
// generated case, and package gen imports sched).
type Savepoint = savepoint

func (sp savepoint) Procs() int  { return sp.procs }
func (t *Txn) Mark() Savepoint   { return t.st.mark() }
func (t *Txn) Undo(sp Savepoint) { t.st.undo(sp) }

// HeldOrder returns the order of the placement the transaction holds,
// nil before its first Apply or Replace.
func (t *Txn) HeldOrder() *Order { return t.held.ord }

// HeldStart returns where the placement Replace would re-place for a
// design over ord starts; false when Replace would place it anew at the
// end.
func (t *Txn) HeldStart(ord *Order) (Savepoint, bool) {
	if !t.holds(ord) {
		return Savepoint{}, false
	}
	return t.held.marks[0], true
}

// UndoTo takes the state back to sp.
func (s *State) UndoTo(sp Savepoint) { s.undo(sp) }

// FingerprintFmt is the fmt reference renderer of State.Fingerprint.
func FingerprintFmt(s *State) []byte { return fingerprintFmt(s) }

// The hint-map setters and the move over maps are the map-based
// reference Design.With is checked against.

// SetMsgStart returns h with the message hint set (or removed when
// start <= 0). h is left unchanged: the result has a MsgStart map of its
// own and shares h's ProcStart map.
func (h Hints) SetMsgStart(m model.MsgID, start tm.Time) Hints {
	h.MsgStart = withHint(h.MsgStart, m, start)
	return h
}

// Clone returns an independent copy of the hints.
func (h Hints) Clone() Hints {
	return Hints{ProcStart: maps.Clone(h.ProcStart), MsgStart: maps.Clone(h.MsgStart)}
}

// Apply returns the design (mapping, hints) with the move applied,
// leaving both arguments unchanged: a process move sets the process's
// node (in a copy of the mapping, when the node changes) and start hint,
// a message move sets the message's start hint, and the zero move
// returns the design as given.
func (mv Move) Apply(mapping model.Mapping, hints Hints) (model.Mapping, Hints) {
	switch mv.Kind {
	case MoveProc:
		if n, ok := mapping[mv.Proc]; !ok || n != mv.Node {
			mapping = mapping.Clone()
			mapping[mv.Proc] = mv.Node
		}
		return mapping, hints.SetProcStart(mv.Proc, mv.Start)
	case MoveMsg:
		return mapping, hints.SetMsgStart(mv.Msg, mv.Start)
	}
	return mapping, hints
}
