package sched

import (
	"fmt"
	"sort"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Txn is an in-place, undo-logged modification of a State: the
// transactional evaluation primitive behind the engine's incremental
// candidate path and behind MapApp. A transaction opens with
// State.Begin, applies one or more candidate placements with Apply (the
// undo-logged form of ScheduleApp), and ends with either Commit (keep
// the placements, discard the log) or Rollback (restore the exact
// pre-Begin state in O(delta): inserted busy intervals are removed, bus
// reservations released, appended schedule entries truncated, and
// overwritten map entries restored from the log).
//
// Inside the package a transaction also has savepoints: mark returns a
// position in the undo log and undo restores the state to it, so one
// placement can be tried and taken back without closing the
// transaction. Rollback is undo to the position Begin took.
//
// While a transaction is open the state must not be cloned, copied into,
// or modified outside Apply. A state carries at most one transaction;
// Begin reuses a rolled-back transaction's storage, so the steady-state
// cost of a Begin/Apply/Rollback cycle is allocation-free.
//
// The transaction also tracks the delta's footprint — which node
// timelines gained intervals and which TDMA slot occurrences gained
// reservations — which is what lets the incremental metrics evaluator
// (package metrics) rescore only the touched regions. The design cost of
// an applied transaction is computed there (metrics sits above sched in
// the layering), via Baseline.Evaluator and Incremental.EvaluateTxn.
type Txn struct {
	st   *State
	open bool

	// begin is the savepoint Begin took; Rollback undoes to it.
	begin savepoint

	// Undo log: every reversible write, in order. The append-only entry
	// slices need no log of their own; a savepoint records their lengths.
	busy []busyInsert
	bus  []BusDelta
	jobs []jobUndo
	maps []mapUndo

	// dirty is the set of nodes whose busy timeline changed.
	dirty map[model.NodeID]struct{}
}

// savepoint is a position in a transaction's undo log: the lengths of
// the log and of the state's entry slices when it was taken.
type savepoint struct {
	procs, msgs           int
	busy, bus, jobs, maps int
}

// BusDelta is one slot-occurrence reservation made under a transaction:
// Bytes booked in occurrence (Round, Slot) of bus Bus. Reserve and
// Release are plain integer bookkeeping on the ledger, so releasing the
// deltas newest first restores the exact prior ledger.
type BusDelta struct {
	Bus         model.BusID
	Round, Slot int
	Bytes       int
}

// busyInsert records one interval inserted into a node's busy set.
// Insert only ever adds exactly the interval (merging with neighbors),
// so Remove of the same interval restores the set exactly. first marks
// the insert that made the node dirty: undoing it makes the node clean
// again, which keeps the dirty set exact at every savepoint.
type busyInsert struct {
	node  model.NodeID
	iv    tm.Interval
	first bool
}

// jobUndo records a jobEnd/jobNode write with the prior values, so a
// rollback restores overwritten entries (the same job can be re-placed
// when Apply is called twice in one transaction) and deletes fresh ones.
type jobUndo struct {
	job      Job
	had      bool
	prevEnd  tm.Time
	prevNode model.NodeID
}

// mapUndo records a mapping write with the prior binding.
type mapUndo struct {
	proc model.ProcID
	had  bool
	prev model.NodeID
}

// Begin opens a transaction on the state. The returned transaction is
// owned by the state: after a Rollback the next Begin reuses it (its log
// is empty again), after a Commit it starts a new one. Begin panics if a
// transaction is already open.
func (s *State) Begin() *Txn {
	if s.txn != nil && s.txn.open {
		panic("sched: Begin with a transaction already open")
	}
	if s.txn == nil {
		s.txn = &Txn{st: s, dirty: make(map[model.NodeID]struct{})}
	}
	t := s.txn
	t.open = true
	t.begin = t.mark()
	return t
}

// tx returns the state's open transaction, nil when none is open: the
// one nil check the scheduling hot path pays for undo logging.
func (s *State) tx() *Txn {
	if s.txn != nil && s.txn.open {
		return s.txn
	}
	return nil
}

// Apply schedules app into the state under the transaction, recording
// every write in the undo log. It is ScheduleApp with rollback support:
// on error the state holds the partial placements of the failed attempt,
// and Rollback removes them together with everything else applied since
// Begin.
func (t *Txn) Apply(app *model.Application, mapping model.Mapping, hints Hints) error {
	if !t.open {
		panic("sched: Apply on a closed transaction")
	}
	return t.st.ScheduleApp(app, mapping, hints)
}

// Commit keeps every applied placement and closes the transaction,
// discarding the undo log together with its storage: a committed state
// is usually kept (a solution, a session version), and its log would
// only hold memory. The next Begin starts a fresh transaction; Rollback,
// the evaluation loop's exit, keeps the storage for reuse instead.
func (t *Txn) Commit() {
	if !t.open {
		panic("sched: Commit on a closed transaction")
	}
	t.open = false
	t.st.txn = nil
}

// Rollback restores the exact pre-Begin state and closes the
// transaction. The cost is proportional to the applied delta, not to the
// size of the schedule.
func (t *Txn) Rollback() {
	if !t.open {
		panic("sched: Rollback on a closed transaction")
	}
	t.undo(t.begin)
	t.open = false
}

// mark returns the current position in the undo log.
func (t *Txn) mark() savepoint {
	return savepoint{
		procs: len(t.st.procs), msgs: len(t.st.msgs),
		busy: len(t.busy), bus: len(t.bus), jobs: len(t.jobs), maps: len(t.maps),
	}
}

// undo restores the state to savepoint sp and truncates the log to it:
// each busy interval inserted since sp is removed, each bus reservation
// released (newest first), the entry slices are truncated, and each
// overwritten job/mapping entry is restored in reverse order.
func (t *Txn) undo(sp savepoint) {
	s := t.st
	for i := len(t.busy) - 1; i >= sp.busy; i-- {
		u := t.busy[i]
		s.busy[u.node].Remove(u.iv)
		if u.first {
			delete(t.dirty, u.node)
		}
	}
	t.busy = t.busy[:sp.busy]
	for i := len(t.bus) - 1; i >= sp.bus; i-- {
		d := t.bus[i]
		s.buses[d.Bus].Release(d.Round, d.Slot, d.Bytes)
	}
	t.bus = t.bus[:sp.bus]
	s.procs = s.procs[:sp.procs]
	s.msgs = s.msgs[:sp.msgs]
	for i := len(t.jobs) - 1; i >= sp.jobs; i-- {
		u := t.jobs[i]
		if u.had {
			s.jobEnd[u.job] = u.prevEnd
			s.jobNode[u.job] = u.prevNode
		} else {
			delete(s.jobEnd, u.job)
			delete(s.jobNode, u.job)
		}
	}
	t.jobs = t.jobs[:sp.jobs]
	for i := len(t.maps) - 1; i >= sp.maps; i-- {
		u := t.maps[i]
		if u.had {
			s.mapping[u.proc] = u.prev
		} else {
			delete(s.mapping, u.proc)
		}
	}
	t.maps = t.maps[:sp.maps]
}

// recordBusy logs one inserted busy interval and marks its node dirty.
func (t *Txn) recordBusy(node model.NodeID, iv tm.Interval) {
	_, dirty := t.dirty[node]
	if !dirty {
		t.dirty[node] = struct{}{}
	}
	t.busy = append(t.busy, busyInsert{node: node, iv: iv, first: !dirty})
}

// recordBus logs one bus reservation.
func (t *Txn) recordBus(bus model.BusID, round, slot, bytes int) {
	t.bus = append(t.bus, BusDelta{Bus: bus, Round: round, Slot: slot, Bytes: bytes})
}

// recordJob logs the prior jobEnd/jobNode entry of j before it is set.
func (t *Txn) recordJob(j Job) {
	prevEnd, had := t.st.jobEnd[j]
	t.jobs = append(t.jobs, jobUndo{job: j, had: had, prevEnd: prevEnd, prevNode: t.st.jobNode[j]})
}

// recordMap logs the prior mapping of p before it is overwritten.
func (t *Txn) recordMap(p model.ProcID) {
	prev, had := t.st.mapping[p]
	t.maps = append(t.maps, mapUndo{proc: p, had: had, prev: prev})
}

// DirtyNode reports whether the transaction changed node n's timeline.
func (t *Txn) DirtyNode(n model.NodeID) bool {
	_, ok := t.dirty[n]
	return ok
}

// DirtyNodeCount returns how many node timelines the transaction
// changed.
func (t *Txn) DirtyNodeCount() int { return len(t.dirty) }

// DirtyNodes returns the changed nodes in ascending order.
func (t *Txn) DirtyNodes() []model.NodeID {
	out := make([]model.NodeID, 0, len(t.dirty))
	for n := range t.dirty {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BusDeltas returns the transaction's bus reservations, over every bus,
// in record order (do not modify).
func (t *Txn) BusDeltas() []BusDelta { return t.bus }

// Fingerprint serializes the state's full schedule content — busy
// timelines, bus ledger, schedule tables, job bookkeeping and mapping —
// into a deterministic byte string. Two states with equal fingerprints
// are indistinguishable to every consumer (scheduling, slack analysis,
// metrics); the transaction tests compare fingerprints around a
// Begin/Apply/Rollback cycle to pin exact restoration.
func (s *State) Fingerprint() []byte {
	var b []byte
	b = fmt.Appendf(b, "horizon=%d\n", s.horizon)
	for _, n := range s.sys.Arch.NodeIDs() {
		b = fmt.Appendf(b, "busy[%d]=%v\n", n, s.busy[n].Intervals())
	}
	for bi, bst := range s.buses {
		for r := 0; r < bst.Rounds(); r++ {
			for sl := 0; sl < bst.Bus().NumSlots(); sl++ {
				if u := bst.Used(r, sl); u != 0 {
					// Bus 0 keeps the historical single-bus key so every
					// pre-multi-cluster fingerprint stays byte-identical.
					if bi == 0 {
						b = fmt.Appendf(b, "bus[%d,%d]=%d\n", r, sl, u)
					} else {
						b = fmt.Appendf(b, "bus%d[%d,%d]=%d\n", bi, r, sl, u)
					}
				}
			}
		}
	}
	for _, e := range s.procs {
		b = fmt.Appendf(b, "proc=%+v\n", e)
	}
	for _, m := range s.msgs {
		// The explicit layout reproduces the historical %+v rendering of
		// the pre-multi-cluster MsgEntry; Bus/Hop are appended only when
		// set, so single-bus fingerprints keep their exact bytes.
		b = fmt.Appendf(b, "msg={App:%d Graph:%d Msg:%d Occ:%d Round:%d Slot:%d Bytes:%d Sender:%d Receiver:%d Ready:%v Start:%v Arrive:%v}",
			m.App, m.Graph, m.Msg, m.Occ, m.Round, m.Slot, m.Bytes, m.Sender, m.Receiver, m.Ready, m.Start, m.Arrive)
		if m.Bus != 0 || m.Hop != 0 {
			b = fmt.Appendf(b, " bus=%d hop=%d", m.Bus, m.Hop)
		}
		b = append(b, '\n')
	}
	jobs := make([]Job, 0, len(s.jobEnd))
	for j := range s.jobEnd {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].Proc != jobs[j].Proc {
			return jobs[i].Proc < jobs[j].Proc
		}
		return jobs[i].Occ < jobs[j].Occ
	})
	for _, j := range jobs {
		b = fmt.Appendf(b, "job=%+v end=%d node=%d\n", j, s.jobEnd[j], s.jobNode[j])
	}
	procs := make([]model.ProcID, 0, len(s.mapping))
	for p := range s.mapping {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, p := range procs {
		b = fmt.Appendf(b, "map[%d]=%d\n", p, s.mapping[p])
	}
	return b
}
