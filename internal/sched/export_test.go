package sched

// Savepoint, Mark and Undo expose the transaction's unexported
// savepoints to the external tests (FuzzTxnUndo needs a generated case,
// and package gen imports sched).
type Savepoint = savepoint

func (t *Txn) Mark() Savepoint   { return t.mark() }
func (t *Txn) Undo(sp Savepoint) { t.undo(sp) }
