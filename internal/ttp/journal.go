package ttp

// Delta is one recorded slot-occurrence reservation: the unit of the
// reversible ledger. A transaction (package sched) records every Reserve
// it performs as a Delta so the whole sequence can be undone in O(delta)
// by Revert, and so downstream consumers (the incremental metrics
// evaluator) know exactly which slot occurrences changed.
type Delta struct {
	Round, Slot int
	Bytes       int
}

// Journal accumulates reservation deltas for later reversal. The zero
// value is an empty journal ready to use; Reset reuses its storage, so a
// journal that lives inside a pooled transaction never re-allocates in
// steady state.
type Journal struct {
	deltas []Delta
}

// Record appends one reservation delta.
func (j *Journal) Record(round, slot, bytes int) {
	j.deltas = append(j.deltas, Delta{Round: round, Slot: slot, Bytes: bytes})
}

// Deltas returns the recorded deltas in record order (do not modify).
func (j *Journal) Deltas() []Delta { return j.deltas }

// Reset empties the journal, keeping its storage.
func (j *Journal) Reset() { j.deltas = j.deltas[:0] }

// Revert releases every reservation recorded in j, newest first, and
// resets the journal. Because Reserve and Release are plain integer
// bookkeeping on the ledger, a revert restores the exact prior ledger
// bytes — the property the scheduler's transaction rollback relies on.
func (s *State) Revert(j *Journal) {
	for i := len(j.deltas) - 1; i >= 0; i-- {
		d := j.deltas[i]
		s.Release(d.Round, d.Slot, d.Bytes)
	}
	j.Reset()
}
