package sched

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Txn is an in-place, undoable modification of a State: the
// transactional evaluation primitive behind the engine's incremental
// candidate path. A transaction opens with State.Begin, places
// applications with Apply (a mapping and hints) or Map (the initial
// mapping of a Design's application), re-places the one placed last
// under other designs with Replace (a Design and a Move), and ends with
// either Commit (keep the placements and detach the transaction) or
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
// The transaction holds the placement Apply, Map or Replace made last:
// the savepoint before each of its jobs and what the design decided for
// each process. Replace compares a new design with that record and undoes
// only to the savepoint of the first job it decides differently, then
// places from there; every earlier job would land where it is, because
// placing a job reads only the state before it, its decision and its
// predecessors. The engine keeps one transaction open per worker and
// re-places each candidate over the last one, so nothing is rolled back
// between candidates; a strategy run's incumbent holds one more.
//
// While a transaction is open the state must not be modified outside
// it. A state carries at most one transaction and Begin reuses it, so
// the steady-state cost of a cycle is allocation-free: the held
// placement keeps the job order and the record of the application it
// placed last, and Apply converts its mapping and hints into a Design
// the transaction reuses, so re-placing that application under another
// mapping or other hints builds nothing.
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

	// dirty counts, by node position (the state's nodes), the process
	// entries appended since Begin, and nDirty the nodes whose count is
	// not 0: the nodes whose busy timeline changed. Placing a job adds
	// one and undoing its entry takes it back, so the footprint is exact
	// at every savepoint.
	dirty  []int32
	nDirty int

	// held is the placement Apply, Map or Replace made last. It lives
	// here and not on the State, and Commit detaches the transaction,
	// because a session keeps each version's State for the version's
	// life.
	held placement
	// applied is the Design Apply converts its mapping and hints into,
	// reused by every Apply.
	applied Design
}

// savepoint is a position in the state's schedule tables.
type savepoint struct{ procs, msgs int }

// mark returns the current savepoint.
func (s *State) mark() savepoint { return savepoint{len(s.procs), len(s.msgs)} }

// undo takes the state back to savepoint sp: newest first, each process
// interval appended since sp leaves its node's busy set and each message
// hop's bytes are released; then both tables are truncated. Under an
// open transaction each process entry removed after Begin leaves the
// dirty counts, and the held placement keeps only the jobs still placed.
func (s *State) undo(sp savepoint) {
	t := s.tx()
	for i := len(s.procs) - 1; i >= sp.procs; i-- {
		e := s.procs[i]
		ni := model.NodePos(s.nodes, e.Node)
		s.busy[ni].Remove(tm.Iv(e.Start, e.End))
		if t != nil && i >= t.begin.procs {
			t.dropEntry(ni)
		}
	}
	for i := len(s.msgs) - 1; i >= sp.msgs; i-- {
		m := s.msgs[i]
		s.buses[m.Bus].Release(m.Round, m.Slot, m.Bytes)
	}
	s.procs = s.procs[:sp.procs]
	s.msgs = s.msgs[:sp.msgs]
	if s.txn != nil {
		m := s.txn.held.marks
		for len(m) > 0 && (m[len(m)-1].procs > sp.procs || m[len(m)-1].msgs > sp.msgs) {
			m = m[:len(m)-1]
		}
		s.txn.held.marks = m
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
		s.txn = &Txn{st: s, dirty: make([]int32, len(s.nodes))}
	}
	t := s.txn
	t.open = true
	t.begin = s.mark()
	// What was placed before Begin is not this transaction's to re-place.
	t.held.marks = t.held.marks[:0]
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

// Apply schedules app into the state under the transaction, on top of
// everything it holds: it is ScheduleApp with the job order kept on the
// transaction, built only when app is not the application placed last,
// and (mapping, hints) converted into a Design the transaction reuses.
// The placement becomes the held one. On error the state is as it was
// before the call, and the transaction stays open with everything
// applied since Begin.
func (t *Txn) Apply(app *model.Application, mapping model.Mapping, hints Hints) error {
	if !t.open {
		panic("sched: Apply on a closed transaction")
	}
	s := t.st
	s.stats.ScheduleCalls.Inc()
	ord := t.held.ord
	if ord == nil || ord.app != app {
		var err error
		if ord, err = s.Order(app); err != nil {
			return err
		}
	}
	t.applied.set(ord, mapping, hints)
	return s.placeAll(&t.held, &t.applied, false)
}

// Map places the initial mapping IM under the transaction, on top of
// everything it holds: MapApp over seed's job order with seed's start
// hints, whatever nodes seed gives. It returns seed with the nodes IM
// chose, whose placement becomes the held one for Replace. On error the
// state is as it was before the call, and the transaction stays open.
func (t *Txn) Map(seed *Design) (*Design, error) {
	if !t.open {
		panic("sched: Map on a closed transaction")
	}
	if err := t.st.placeAll(&t.held, seed, true); err != nil {
		return nil, err
	}
	return seed.mapped(t.held.decs), nil
}

// Replace re-places the held placement under design d with mv applied
// over it: afterwards the state is what undoing the held placement and
// scheduling that design would give. from is a job position before which
// the caller vouches that the new design decides every job as the held
// placement did (0 vouches for nothing; see Order.MoveJob). Replace
// compares the decisions from there, undoes to the savepoint before the
// first job decided differently and places from it. When the transaction
// holds no placement over d's order at the end of the tables, Replace
// places d there from its first job, like Apply.
//
// On error the jobs before the one that failed stay placed and held, so
// the next Replace re-places from at most that job; the transaction
// stays open.
func (t *Txn) Replace(from int, d *Design, mv Move) error {
	if !t.open {
		panic("sched: Replace on a closed transaction")
	}
	s := t.st
	s.stats.ScheduleCalls.Inc()
	pl := &t.held
	if !t.holds(d.ord) {
		pl.start(d.ord, s.mark())
		from = 0
	}
	c := d.over(mv)
	from = pl.diverge(from, &c)
	s.undo(pl.marks[from])
	return s.place(pl, from, &c, false)
}

// holds reports whether the held placement is one over ord that ends
// where the tables end: the placement Replace re-places.
func (t *Txn) holds(ord *Order) bool {
	m := t.held.marks
	return t.held.ord == ord && len(m) > 0 && m[len(m)-1] == t.st.mark()
}

// Commit keeps every placement, closes the transaction and detaches it,
// so the state keeps no placement record (a session keeps each
// version's state for long); the next Begin opens a new transaction.
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
	t.st.undo(t.begin)
	t.open = false
}

// addEntry counts one more process entry on the node at position i.
func (t *Txn) addEntry(i int) {
	if t.dirty[i] == 0 {
		t.nDirty++
	}
	t.dirty[i]++
}

// dropEntry counts one process entry on the node at position i less.
func (t *Txn) dropEntry(i int) {
	t.dirty[i]--
	if t.dirty[i] == 0 {
		t.nDirty--
	}
}

// DirtyNode reports whether the transaction changed node n's timeline.
func (t *Txn) DirtyNode(n model.NodeID) bool {
	i := model.NodePos(t.st.nodes, n)
	return i >= 0 && t.dirty[i] > 0
}

// DirtyNodeCount returns how many node timelines the transaction
// changed.
func (t *Txn) DirtyNodeCount() int { return t.nDirty }

// DirtyNodes returns the changed nodes in ascending order.
func (t *Txn) DirtyNodes() []model.NodeID {
	out := make([]model.NodeID, 0, t.nDirty)
	for i, n := range t.st.nodes {
		if t.dirty[i] > 0 {
			out = append(out, n)
		}
	}
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
	for k, n := range s.nodes {
		b = appendInts(b, "busy[%]=[", int64(n))
		for i, iv := range s.busy[k].Intervals() {
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
