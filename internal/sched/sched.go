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
// alternatives in a transaction on a worker's copy of the base State
// (Begin, Apply with a different mapping or different placement hints,
// Rollback). The schedule tables are the undo log: a placement only
// appends entries, so a savepoint is the two table lengths, and MapApp's
// node trials and a failed ScheduleApp undo to one the way Rollback
// does.
package sched

import (
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

// Clone returns an independent copy of the hints.
func (h Hints) Clone() Hints {
	c := Hints{}
	if h.ProcStart != nil {
		c.ProcStart = make(map[model.ProcID]tm.Time, len(h.ProcStart))
		for k, v := range h.ProcStart {
			c.ProcStart[k] = v
		}
	}
	if h.MsgStart != nil {
		c.MsgStart = make(map[model.MsgID]tm.Time, len(h.MsgStart))
		for k, v := range h.MsgStart {
			c.MsgStart[k] = v
		}
	}
	return c
}

// SetProcStart returns a copy of h with the process hint set (or removed
// when start <= 0).
func (h Hints) SetProcStart(p model.ProcID, start tm.Time) Hints {
	c := h.Clone()
	if c.ProcStart == nil {
		c.ProcStart = map[model.ProcID]tm.Time{}
	}
	if start <= 0 {
		delete(c.ProcStart, p)
	} else {
		c.ProcStart[p] = start
	}
	return c
}

// SetMsgStart returns a copy of h with the message hint set (or removed
// when start <= 0).
func (h Hints) SetMsgStart(m model.MsgID, start tm.Time) Hints {
	c := h.Clone()
	if c.MsgStart == nil {
		c.MsgStart = map[model.MsgID]tm.Time{}
	}
	if start <= 0 {
		delete(c.MsgStart, m)
	} else {
		c.MsgStart[m] = start
	}
	return c
}
