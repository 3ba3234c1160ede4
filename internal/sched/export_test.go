package sched

// Savepoint, Mark and Undo expose the state's unexported savepoints to
// the external tests through the transaction (FuzzTxnUndo needs a
// generated case, and package gen imports sched).
type Savepoint = savepoint

func (t *Txn) Mark() Savepoint   { return t.st.mark() }
func (t *Txn) Undo(sp Savepoint) { t.st.undo(sp) }

// FingerprintFmt is the fmt reference renderer of State.Fingerprint.
func FingerprintFmt(s *State) []byte { return fingerprintFmt(s) }
