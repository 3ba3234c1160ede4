// Package sched implements the static cyclic scheduler of the paper: an
// insertion-based list scheduler that places every occurrence of every
// process of an application into free processor time, and every
// inter-node message into a TDMA slot occurrence of the sender's node,
// over the system hyperperiod.
//
// A State accumulates applications one at a time, which is exactly the
// incremental design process: existing applications are scheduled first
// and become immovable reservations; the current application is then
// scheduled into the remaining slack. Mapping strategies evaluate design
// alternatives in a transaction kept open on a worker's copy of the base
// State: Replace re-places the current application under each
// alternative, from the first job it decides differently from the one
// placed before. The schedule tables are the undo log: a placement only
// appends entries, so a savepoint is the two table lengths, and Replace,
// Rollback, MapApp's node trials and a failed ScheduleApp all undo to
// one.
package sched

import (
	"maps"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Job identifies one occurrence of a process within the hyperperiod.
type Job struct {
	Proc model.ProcID
	Occ  int
}

// ProcEntry is one scheduled process occurrence.
type ProcEntry struct {
	App   model.AppID
	Graph model.GraphID
	Proc  model.ProcID
	Occ   int
	Node  model.NodeID
	Start tm.Time
	End   tm.Time
}

// MsgEntry is one scheduled message transmission: one hop of a message
// occurrence on one TDMA bus. On a single-bus architecture every message
// occurrence is exactly one hop (Bus 0, Hop 0). On multi-cluster
// architectures an inter-cluster occurrence expands into a chain of
// entries — producer to gateway, gateway to gateway, gateway to consumer
// — sharing (Msg, Occ) and numbered by Hop, each on the bus its sender
// owns a slot on.
type MsgEntry struct {
	App      model.AppID
	Graph    model.GraphID
	Msg      model.MsgID
	Occ      int
	Round    int
	Slot     int
	Bytes    int
	Sender   model.NodeID // transmitting node of this hop
	Receiver model.NodeID // receiving node of this hop
	Ready    tm.Time      // producer finish (hop 0) or previous hop's Arrive
	Start    tm.Time      // slot start
	Arrive   tm.Time      // slot end: data available at the receiver
	Bus      model.BusID  // bus this hop is transmitted on
	Hop      int          // position in the occurrence's route chain
}

// Hints bias the scheduler's placement decisions and are the mechanism
// behind the paper's design transformations: "move process to a different
// slack" sets a minimum start offset for the process; "move message to a
// different slack on the bus" sets a minimum slot-start offset for the
// message. Offsets are relative to the release of each occurrence
// (k * period), so one hint consistently shifts every occurrence.
//
// Hints are preferences, not constraints: when honoring a hint would make
// a job unschedulable, the scheduler ignores that hint and places the job
// at its earliest feasible position instead. A design alternative
// therefore only fails when it is genuinely infeasible.
type Hints struct {
	ProcStart map[model.ProcID]tm.Time
	MsgStart  map[model.MsgID]tm.Time
}

// SetProcStart returns h with the process hint set (or removed when
// start <= 0). h is left unchanged: the result has a ProcStart map of
// its own and shares h's MsgStart map.
func (h Hints) SetProcStart(p model.ProcID, start tm.Time) Hints {
	h.ProcStart = withHint(h.ProcStart, p, start)
	return h
}

// withHint returns a copy of hints with k's hint set to start, or
// removed when start <= 0.
func withHint[K comparable](hints map[K]tm.Time, k K, start tm.Time) map[K]tm.Time {
	c := maps.Clone(hints)
	if c == nil {
		c = map[K]tm.Time{}
	}
	if start <= 0 {
		delete(c, k)
	} else {
		c[k] = start
	}
	return c
}

// MoveKind tells which of the paper's two design transformations a Move
// is. The zero Move has neither kind and changes nothing.
type MoveKind uint8

const (
	// MoveProc maps process Proc to node Node with start hint Start.
	MoveProc MoveKind = iota + 1
	// MoveMsg gives message Msg the start hint Start.
	MoveMsg
)

// Move is one design transformation over a Design: a process moved to a
// node and a slack position, or a message moved to a slot position. Start is an offset from the occurrence's
// release, as in Hints; a Start of 0 or less clears the hint, as
// SetProcStart does. A move is a small value, so a strategy can
// enumerate its candidates without copying the design, and a
// transaction re-places only the jobs a move reaches (Txn.Replace).
type Move struct {
	Kind  MoveKind
	Proc  model.ProcID
	Node  model.NodeID
	Msg   model.MsgID
	Start tm.Time
}
