package sched

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Txn is an in-place, undoable modification of a State: the
// transactional evaluation primitive behind the engine's incremental
// candidate path. A transaction opens with State.Begin, applies one or
// more candidate placements with Apply (ScheduleApp inside the
// transaction), and ends with either Commit (keep the placements) or
// Rollback (restore the exact pre-Begin state in O(delta)).
//
// The state's schedule tables are the undo log. Every placement write
// appends one entry, a process interval to procs or a message hop to
// msgs, so a savepoint is the two table lengths and undoing to it walks
// the entries appended since: each interval is removed from its node's
// busy set (exact, because Insert only added that interval), each hop's
// bytes are released, and both tables are truncated. Rollback is undo
// to the savepoint Begin took; ScheduleApp and MapApp use the same
// savepoints without a transaction.
//
// While a transaction is open the state must not be cloned, copied into,
// or modified outside Apply. A state carries at most one transaction and
// Begin reuses it, so the steady-state cost of a Begin/Apply/Rollback
// cycle is allocation-free: the transaction also keeps the job order of
// the application it applied last, so re-placing that application under
// another mapping or other hints builds nothing.
//
// The transaction also exposes the delta's footprint: which node
// timelines gained intervals (DirtyNodes) and which TDMA slot
// occurrences gained reservations (BusDeltas). That is what lets the
// incremental metrics evaluator (package metrics) rescore only the
// touched regions. The design cost of an applied transaction is computed
// there (metrics sits above sched in the layering), via
// Baseline.Evaluator and Incremental.EvaluateTxn.
type Txn struct {
	st   *State
	open bool

	// begin is the savepoint Begin took; Rollback undoes to it.
	begin savepoint

	// dirty is the set of nodes of the process entries appended since
	// Begin: the nodes whose busy timeline changed.
	dirty map[model.NodeID]struct{}

	// order is the job order of the application Apply placed last, kept
	// across Commit, Rollback and Begin. An application is immutable once
	// finalized, so the order is reused while Apply gets the same
	// *model.Application: an engine worker builds it once per solve, not
	// once per candidate. It lives here and not on the State because a
	// transaction lives only in a worker's scratch state, while a
	// session keeps each version's State for the version's life.
	order *jobOrder
}

// savepoint is a position in the state's schedule tables.
type savepoint struct{ procs, msgs int }

// mark returns the current savepoint.
func (s *State) mark() savepoint { return savepoint{len(s.procs), len(s.msgs)} }

// undo takes the state back to savepoint sp: newest first, each process
// interval appended since sp leaves its node's busy set and each message
// hop's bytes are released; then both tables are truncated. When process
// entries go under an open transaction, its dirty set is recomputed from
// the entries that remain.
func (s *State) undo(sp savepoint) {
	for i := len(s.procs) - 1; i >= sp.procs; i-- {
		e := s.procs[i]
		s.busy[e.Node].Remove(tm.Iv(e.Start, e.End))
	}
	for i := len(s.msgs) - 1; i >= sp.msgs; i-- {
		m := s.msgs[i]
		s.buses[m.Bus].Release(m.Round, m.Slot, m.Bytes)
	}
	removed := len(s.procs) > sp.procs
	s.procs = s.procs[:sp.procs]
	s.msgs = s.msgs[:sp.msgs]
	if t := s.tx(); t != nil && removed {
		clear(t.dirty)
		for _, e := range s.procs[t.begin.procs:] {
			t.dirty[e.Node] = struct{}{}
		}
	}
}

// Begin opens a transaction on the state. The returned transaction is
// owned by the state and reused by every later Begin. Begin panics if a
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
	t.begin = s.mark()
	return t
}

// tx returns the state's open transaction, nil when none is open: the
// one nil check the scheduling hot path pays for dirty tracking.
func (s *State) tx() *Txn {
	if s.txn != nil && s.txn.open {
		return s.txn
	}
	return nil
}

// Apply schedules app into the state under the transaction. It is
// ScheduleApp with the job order kept on the transaction: it is built
// only when app is not the application Apply placed last. On error the
// state is as it was before the call, and the transaction stays open
// with everything applied since Begin.
func (t *Txn) Apply(app *model.Application, mapping model.Mapping, hints Hints) error {
	if !t.open {
		panic("sched: Apply on a closed transaction")
	}
	s := t.st
	s.stats.ScheduleCalls.Inc()
	if t.order == nil || t.order.app != app {
		ord, err := s.orderJobs(app)
		if err != nil {
			return err
		}
		t.order = ord
	}
	return s.place(t.order, mapping, hints)
}

// Commit keeps every applied placement and closes the transaction.
func (t *Txn) Commit() {
	if !t.open {
		panic("sched: Commit on a closed transaction")
	}
	t.open = false
	clear(t.dirty)
}

// Rollback restores the exact pre-Begin state and closes the
// transaction. The cost is proportional to the applied delta, not to the
// size of the schedule.
func (t *Txn) Rollback() {
	if !t.open {
		panic("sched: Rollback on a closed transaction")
	}
	t.st.undo(t.begin)
	t.open = false
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

// BusDeltas returns the message hops appended since Begin, over every
// bus, in placement order (do not modify): each is one reservation of
// Bytes in occurrence (Round, Slot) of bus Bus.
func (t *Txn) BusDeltas() []MsgEntry { return t.st.msgs[t.begin.msgs:] }

// Fingerprint serializes the state's full schedule content — busy
// timelines, bus ledger, schedule tables, and the job and mapping views
// of the process entries — into a deterministic byte string. Two states
// with equal fingerprints are indistinguishable to every consumer
// (scheduling, slack analysis, metrics); the transaction tests compare
// fingerprints around a Begin/Apply/Rollback cycle to pin exact
// restoration.
//
// The bytes are a persisted contract: session documents store their
// SHA-256 and verify every replay against it, so the layout never
// changes. It is the historical fmt rendering (%v and %+v, where a
// tm.Time prints with its "tu" unit), written with strconv; that fmt
// renderer is kept in the package's tests as the reference.
func (s *State) Fingerprint() []byte {
	b := make([]byte, 0, 160*(len(s.procs)+len(s.msgs))+256)
	b = appendInts(b, "horizon=%\n", int64(s.horizon))
	for _, n := range s.sys.Arch.NodeIDs() {
		b = appendInts(b, "busy[%]=[", int64(n))
		for i, iv := range s.busy[n].Intervals() {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendInts(b, "[%,%)", int64(iv.Start), int64(iv.End))
		}
		b = append(b, "]\n"...)
	}
	for bi, bst := range s.buses {
		for r := 0; r < bst.Rounds(); r++ {
			for sl := 0; sl < bst.Bus().NumSlots(); sl++ {
				if u := bst.Used(r, sl); u != 0 {
					// Bus 0 keeps the historical single-bus key so every
					// pre-multi-cluster fingerprint stays byte-identical.
					if bi == 0 {
						b = appendInts(b, "bus[%,%]=%\n", int64(r), int64(sl), int64(u))
					} else {
						b = appendInts(b, "bus%[%,%]=%\n", int64(bi), int64(r), int64(sl), int64(u))
					}
				}
			}
		}
	}
	for _, e := range s.procs {
		b = appendInts(b, "proc={App:% Graph:% Proc:% Occ:% Node:% Start:%tu End:%tu}\n",
			int64(e.App), int64(e.Graph), int64(e.Proc), int64(e.Occ), int64(e.Node), int64(e.Start), int64(e.End))
	}
	for _, m := range s.msgs {
		// Bus/Hop are appended only when set, so single-bus fingerprints
		// keep the bytes of the pre-multi-cluster MsgEntry.
		b = appendInts(b, "msg={App:% Graph:% Msg:% Occ:% Round:% Slot:% Bytes:% Sender:% Receiver:% Ready:%tu Start:%tu Arrive:%tu}",
			int64(m.App), int64(m.Graph), int64(m.Msg), int64(m.Occ), int64(m.Round), int64(m.Slot), int64(m.Bytes),
			int64(m.Sender), int64(m.Receiver), int64(m.Ready), int64(m.Start), int64(m.Arrive))
		if m.Bus != 0 || m.Hop != 0 {
			b = appendInts(b, " bus=% hop=%", int64(m.Bus), int64(m.Hop))
		}
		b = append(b, '\n')
	}
	// The job and mapping lines are views of the process entries, sorted
	// by job and by process; a later entry of the same job or process
	// wins. Entry positions sorted by (process, occurrence, position) put
	// every job's entries, and every process's, next to each other.
	pos := make([]int, len(s.procs))
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(i, j int) int {
		a, c := &s.procs[i], &s.procs[j]
		if a.Proc != c.Proc {
			return cmp.Compare(a.Proc, c.Proc)
		}
		if a.Occ != c.Occ {
			return cmp.Compare(a.Occ, c.Occ)
		}
		return cmp.Compare(i, j)
	})
	for k, i := range pos {
		e := &s.procs[i]
		if k+1 < len(pos) {
			if next := &s.procs[pos[k+1]]; next.Proc == e.Proc && next.Occ == e.Occ {
				continue // a later entry of the same job follows
			}
		}
		b = appendInts(b, "job={Proc:% Occ:%} end=% node=%\n", int64(e.Proc), int64(e.Occ), int64(e.End), int64(e.Node))
	}
	for k := 0; k < len(pos); {
		p, latest := s.procs[pos[k]].Proc, pos[k]
		for ; k < len(pos) && s.procs[pos[k]].Proc == p; k++ {
			latest = max(latest, pos[k])
		}
		b = appendInts(b, "map[%]=%\n", int64(p), int64(s.procs[latest].Node))
	}
	return b
}

// appendInts appends layout to b with each '%' replaced by the next of
// vs in decimal: the one formatting step of Fingerprint.
func appendInts(b []byte, layout string, vs ...int64) []byte {
	for _, v := range vs {
		i := strings.IndexByte(layout, '%')
		b = strconv.AppendInt(append(b, layout[:i]...), v, 10)
		layout = layout[i+1:]
	}
	return append(b, layout...)
}
