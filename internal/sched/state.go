package sched

import (
	"errors"
	"fmt"

	"incdes/internal/model"
	"incdes/internal/tm"
	"incdes/internal/ttp"
)

// State is a (partial) static cyclic schedule over the hyperperiod of a
// system: per-node busy intervals, bus slot reservations, and the schedule
// tables built so far. Applications are added one at a time with
// ScheduleApp; everything already in the state is immovable.
//
// The schedule tables are the only record of a placement: every write
// appends one entry, a process interval to procs or a message hop to
// msgs, and the busy sets and bus ledgers hold nothing else. So a
// savepoint is the two table lengths, and undoing to it takes back the
// entries appended since (see txn.go). ScheduleApp and MapApp undo their
// own partial placement on failure, and a transaction (Begin) undoes
// whole candidate placements on Rollback, which is how strategies
// evaluate alternatives without cloning the base for each one.
//
// A State holds no scheduling scratch: a call finds a job's predecessors
// by their positions in the application's job order (order.go), and the
// order itself is built per ScheduleApp or MapApp call or kept by the
// state's transaction (Txn.Apply), never stored on the state.
type State struct {
	sys     *model.System
	horizon tm.Time
	busy    map[model.NodeID]*tm.Set
	buses   []*ttp.State // one reservation ledger per bus, index == BusID

	// routes is the architecture's precomputed deterministic route table,
	// shared read-only by every clone of the state.
	routes *model.RouteTable

	procs []ProcEntry
	msgs  []MsgEntry

	// stats are optional observability sinks (see obs.go). They never
	// influence placement decisions.
	stats Stats

	// txn is the state's reusable transaction (see txn.go). Clones never
	// inherit it: a transaction belongs to exactly one state.
	txn *Txn
}

// NewState returns an empty schedule over the system hyperperiod.
func NewState(sys *model.System) (*State, error) {
	horizon := sys.Hyperperiod()
	if horizon <= 0 {
		return nil, errors.New("sched: the system has no hyperperiod (System.Validate says why)")
	}
	buses := make([]*ttp.State, len(sys.Arch.Buses))
	for i, b := range sys.Arch.Buses {
		st, err := ttp.NewState(b, horizon)
		if err != nil {
			return nil, err
		}
		buses[i] = st
	}
	routes, err := model.BuildRoutes(sys.Arch)
	if err != nil {
		return nil, err
	}
	busy := make(map[model.NodeID]*tm.Set, len(sys.Arch.Nodes))
	for _, n := range sys.Arch.Nodes {
		busy[n.ID] = tm.NewSet()
	}
	return &State{
		sys:     sys,
		horizon: horizon,
		busy:    busy,
		buses:   buses,
		routes:  routes,
	}, nil
}

// Clone returns an independent deep copy.
func (s *State) Clone() *State {
	c := &State{
		sys:     s.sys,
		horizon: s.horizon,
		busy:    make(map[model.NodeID]*tm.Set, len(s.busy)),
		buses:   make([]*ttp.State, len(s.buses)),
		routes:  s.routes,
		procs:   append([]ProcEntry(nil), s.procs...),
		msgs:    append([]MsgEntry(nil), s.msgs...),
		stats:   s.stats,
	}
	for i, b := range s.buses {
		c.buses[i] = b.Clone()
	}
	for n, set := range s.busy {
		c.busy[n] = set.Clone()
	}
	return c
}

// System returns the system the schedule belongs to.
func (s *State) System() *model.System { return s.sys }

// Horizon returns the hyperperiod the schedule covers.
func (s *State) Horizon() tm.Time { return s.horizon }

// Busy returns the busy interval set of a node (do not modify).
func (s *State) Busy(n model.NodeID) *tm.Set { return s.busy[n] }

// NumBuses returns the number of TDMA buses of the architecture.
func (s *State) NumBuses() int { return len(s.buses) }

// BusStateAt returns bus i's reservation state (do not modify).
func (s *State) BusStateAt(i int) *ttp.State { return s.buses[i] }

// ProcEntries returns every scheduled process occurrence (do not modify).
func (s *State) ProcEntries() []ProcEntry { return s.procs }

// MsgEntries returns every scheduled message occurrence (do not modify).
func (s *State) MsgEntries() []MsgEntry { return s.msgs }

// Mapping returns the process-to-node assignment of all applications
// scheduled so far, read off the process entries, as a fresh map.
func (s *State) Mapping() model.Mapping {
	m := model.Mapping{}
	for _, e := range s.procs {
		m[e.Proc] = e.Node
	}
	return m
}

// Occurrences returns how many times a graph with the given period repeats
// inside the hyperperiod.
func (s *State) Occurrences(period tm.Time) int {
	return int(s.horizon / period)
}

// jobDeadline returns the absolute deadline of occurrence occ of graph g.
func jobDeadline(g *model.Graph, occ int) tm.Time {
	return tm.Time(occ)*g.Period + g.Deadline
}

// hopSlot is one found slot occurrence of a route hop.
type hopSlot struct{ round, slot int }

// findRoute walks a route finding a feasible slot occurrence per hop
// without reserving anything: hop i's earliest transmit time is the
// previous hop's arrival. A route never uses the same bus twice (the
// route search visits each bus at most once), so the unreserved finds
// cannot interact. Returns false when some hop has no capacity.
func (s *State) findRoute(route []model.Hop, bytes int, earliest tm.Time, buf []hopSlot) ([]hopSlot, bool) {
	t := earliest
	for _, hop := range route {
		bst := s.buses[hop.Bus]
		round, slot, ok := bst.FindSlot(hop.From, t, bytes, 0)
		if !ok {
			return buf, false
		}
		buf = append(buf, hopSlot{round, slot})
		t = bst.SlotEnd(round, slot)
	}
	return buf, true
}

// planMsg finds (and reserves) slot occurrences for one message
// occurrence along the deterministic route from sender to receiver,
// appending one MsgEntry per hop to the schedule and returning the
// occurrence's final arrival time. release is the occurrence release
// time k*T; ready is when the producer finishes. The whole route is
// found before anything is reserved, so a failed chain reserves nothing.
func (s *State) planMsg(app model.AppID, g *model.Graph, m *model.Message, occ int, sender, receiver model.NodeID,
	ready, release tm.Time, hints Hints) (tm.Time, error) {

	route := s.routes.Route(sender, receiver)
	if len(route) == 0 {
		return 0, fmt.Errorf("sched: no route for message %d occ %d (node %d to node %d)",
			m.ID, occ, sender, receiver)
	}
	earliest := ready
	if off, ok := hints.MsgStart[m.ID]; ok {
		earliest = tm.Max(earliest, release+off)
	}
	var found [4]hopSlot
	slots, ok := s.findRoute(route, m.Bytes, earliest, found[:0])
	if !ok && earliest > ready {
		// The hint is a preference, not a constraint: fall back to the
		// earliest feasible slot when honoring it is impossible.
		slots, ok = s.findRoute(route, m.Bytes, ready, found[:0])
	}
	if !ok {
		return 0, fmt.Errorf("sched: no slot for message %d occ %d (sender node %d, %d bytes, earliest %v)",
			m.ID, occ, sender, m.Bytes, ready)
	}
	hopReady := ready
	var arrive tm.Time
	for i, hop := range route {
		bst := s.buses[hop.Bus]
		if err := bst.Reserve(slots[i].round, slots[i].slot, m.Bytes); err != nil {
			return 0, err
		}
		arrive = bst.SlotEnd(slots[i].round, slots[i].slot)
		s.msgs = append(s.msgs, MsgEntry{
			App: app, Graph: g.ID, Msg: m.ID, Occ: occ,
			Round: slots[i].round, Slot: slots[i].slot, Bytes: m.Bytes,
			Sender: hop.From, Receiver: hop.To,
			Ready:  hopReady,
			Start:  bst.SlotStart(slots[i].round, slots[i].slot),
			Arrive: arrive,
			Bus:    hop.Bus, Hop: i,
		})
		hopReady = arrive
	}
	return arrive, nil
}

// placeJob is the placing half of scheduleJob: it routes and reserves
// the inter-node messages feeding job jb on node (messages are scheduled
// when their consumer is placed, because only then are both endpoints
// known) and returns the start time first-fit finds for the process on
// node. callStart is the procs length the running call began at: a
// predecessor at order position k is procs[callStart+k]. It writes only
// the bus ledger and the message entries; MapApp's trials undo those to
// a savepoint.
func (s *State) placeJob(app *model.Application, jb *jobItem, callStart int,
	node model.NodeID, wcet tm.Time, hints Hints) (tm.Time, error) {

	g, p, occ := jb.graph, jb.proc, jb.occ
	release := tm.Time(occ) * g.Period
	deadline := jobDeadline(g, occ)

	dataReady := release
	for _, in := range jb.ins {
		pred := s.procs[callStart+in.pred]
		if pred.Node == node {
			dataReady = tm.Max(dataReady, pred.End) // same node: shared memory, no bus
			continue
		}
		arrive, err := s.planMsg(app.ID, g, in.msg, occ, pred.Node, node, pred.End, release, hints)
		if err != nil {
			return 0, err
		}
		dataReady = tm.Max(dataReady, arrive)
	}

	earliest := dataReady
	if off, ok := hints.ProcStart[p.ID]; ok {
		earliest = tm.Max(earliest, release+off)
	}
	start, ok := s.busy[node].FirstFit(earliest, wcet, deadline)
	if !ok && earliest > dataReady {
		// Hints are preferences: ignore one rather than fail the design.
		start, ok = s.busy[node].FirstFit(dataReady, wcet, deadline)
	}
	if !ok {
		return 0, fmt.Errorf("sched: process %d occ %d does not fit on node %d before deadline %v",
			p.ID, occ, node, deadline)
	}
	return start, nil
}

// scheduleJob places one job (and the inter-node messages feeding it)
// onto its mapped node: placeJob finds the position, and the booking half
// below inserts the process into the node's timeline and appends its
// entry to the schedule tables.
func (s *State) scheduleJob(app *model.Application, jb *jobItem, callStart int,
	mapping model.Mapping, hints Hints) error {

	p := jb.proc
	node, ok := mapping[p.ID]
	if !ok {
		return fmt.Errorf("sched: process %d has no mapping", p.ID)
	}
	wcet, ok := p.WCET[node]
	if !ok {
		return fmt.Errorf("sched: process %d cannot run on node %d", p.ID, node)
	}
	start, err := s.placeJob(app, jb, callStart, node, wcet, hints)
	if err != nil {
		return err
	}
	iv := tm.Iv(start, start+wcet)
	if err := s.busy[node].Insert(iv); err != nil {
		return fmt.Errorf("sched: internal: %w", err)
	}
	s.stats.JobsPlaced.Inc()
	s.procs = append(s.procs, ProcEntry{
		App: app.ID, Graph: jb.graph.ID, Proc: p.ID, Occ: jb.occ,
		Node: node, Start: start, End: iv.End,
	})
	if t := s.tx(); t != nil {
		t.dirty[node] = struct{}{}
	}
	return nil
}

// ScheduleApp schedules every occurrence of every graph of app into the
// state using the given mapping, honoring hints. Jobs are processed in
// decreasing partial-critical-path priority (which respects precedence).
// On failure it undoes its own partial placement, so a failed call
// leaves the state exactly as it was. It builds the application's job
// order on every call; Txn.Apply is the same placement with the order
// kept on the transaction.
func (s *State) ScheduleApp(app *model.Application, mapping model.Mapping, hints Hints) error {
	s.stats.ScheduleCalls.Inc()
	ord, err := s.orderJobs(app)
	if err != nil {
		return err
	}
	return s.place(ord, mapping, hints)
}

// place schedules the jobs of ord in order with the given mapping. Each
// job appends one process entry, so the call's jobs occupy procs from
// the savepoint it takes on entry; on failure it undoes to that
// savepoint.
func (s *State) place(ord *jobOrder, mapping model.Mapping, hints Hints) error {
	sp := s.mark()
	for i := range ord.jobs {
		if err := s.scheduleJob(ord.app, &ord.jobs[i], sp.procs, mapping, hints); err != nil {
			s.undo(sp)
			return err
		}
	}
	return nil
}

// Restrict returns a new state over sys containing only the applications
// accepted by keep, with their schedule entries copied verbatim from src.
// This is how an application is "unscheduled": build the complement. sys
// may differ from src's system (e.g. it additionally contains the next
// application to be placed) but must share the architecture and yield the
// same hyperperiod. The reconstruction works purely from the schedule
// tables, so the result is exactly what scheduling the kept applications
// in src's positions would have produced.
func Restrict(src *State, sys *model.System, keep func(model.AppID) bool) (*State, error) {
	if sys.Arch != src.sys.Arch {
		return nil, fmt.Errorf("sched: restrict: target system has a different architecture")
	}
	st, err := NewState(sys)
	if err != nil {
		return nil, err
	}
	if st.horizon != src.horizon {
		return nil, fmt.Errorf("sched: restrict: hyperperiod changes from %v to %v", src.horizon, st.horizon)
	}
	for _, e := range src.procs {
		if !keep(e.App) {
			continue
		}
		if err := st.busy[e.Node].Insert(tm.Iv(e.Start, e.End)); err != nil {
			return nil, fmt.Errorf("sched: restrict: %w", err)
		}
		st.procs = append(st.procs, e)
	}
	for _, m := range src.msgs {
		if !keep(m.App) {
			continue
		}
		if err := st.buses[m.Bus].Reserve(m.Round, m.Slot, m.Bytes); err != nil {
			return nil, fmt.Errorf("sched: restrict: %w", err)
		}
		st.msgs = append(st.msgs, m)
	}
	return st, nil
}
