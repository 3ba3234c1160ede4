package sched

import (
	"fmt"
	"math"
	"slices"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Design is one design alternative of an application, dense over the
// application's Order: the node and start hint of every process position
// and the start hint of every message position. A hint of 0 is no hint,
// as an absent Hints entry is. A Design never changes once built: With
// returns a new one, which is what lets an evaluation worker tell by
// identity that a candidate is a move over the design it placed last.
type Design struct {
	ord *Order
	// v holds the nodes by process position, then the process start
	// hints by process position, then the message start hints by message
	// position: one array, so With copies one allocation. A node ID is
	// held as a tm.Time; noNode marks a process the design does not map.
	v []tm.Time
}

// noNode marks an unmapped process in a Design.
const noNode = model.NodeID(math.MinInt)

// Design returns the design (mapping, hints) over o. Hints for IDs
// outside o's application, and hints of 0 or less, decide nothing and
// are not kept. The conversion reads each map once per process and
// message, O(processes + messages).
func (o *Order) Design(mapping model.Mapping, hints Hints) *Design {
	d := &Design{}
	d.set(o, mapping, hints)
	return d
}

// set makes d the design (mapping, hints) over o, reusing d's array.
func (d *Design) set(o *Order, mapping model.Mapping, hints Hints) {
	np := len(o.procs)
	d.ord = o
	d.v = slices.Grow(d.v[:0], 2*np+len(o.msgs))[:2*np+len(o.msgs)]
	for i, p := range o.procs {
		node, ok := mapping[p.ID]
		if !ok {
			node = noNode
		}
		d.v[i] = tm.Time(node)
		d.v[np+i] = hint(hints.ProcStart[p.ID])
	}
	for j, m := range o.msgs {
		d.v[2*np+j] = hint(hints.MsgStart[m.ID])
	}
}

// hint returns a start hint as a Design holds it: 0 or less is no hint.
func hint(start tm.Time) tm.Time { return max(start, 0) }

// With returns the design with mv applied: a process move sets the
// process's node and start hint, a message move the message's start
// hint; a Start of 0 or less clears the hint. A move of an ID outside
// the application, and the zero move, change nothing. It allocates the
// Design and one array.
func (d *Design) With(mv Move) *Design {
	c := &Design{ord: d.ord, v: slices.Clone(d.v)}
	np := len(d.ord.procs)
	switch mv.Kind {
	case MoveProc:
		if i, ok := d.ord.procPos[mv.Proc]; ok {
			c.v[i], c.v[np+i] = tm.Time(mv.Node), hint(mv.Start)
		}
	case MoveMsg:
		if j, ok := d.ord.msgPos[mv.Msg]; ok {
			c.v[2*np+j] = hint(mv.Start)
		}
	}
	return c
}

// Order returns the job order d is a vector over.
func (d *Design) Order() *Order { return d.ord }

// node returns the node of process position i.
func (d *Design) node(i int) model.NodeID { return model.NodeID(d.v[i]) }

// procStart returns the start hint of process position i.
func (d *Design) procStart(i int) tm.Time { return d.v[len(d.ord.procs)+i] }

// msgStarts returns the start hints of the n message positions from j.
func (d *Design) msgStarts(j, n int) []tm.Time {
	j += 2 * len(d.ord.procs)
	return d.v[j : j+n]
}

// Node returns the node d maps process p to; 0 for a process it does not
// map or outside its application, as a Mapping reads.
func (d *Design) Node(p model.ProcID) model.NodeID {
	if i, ok := d.ord.procPos[p]; ok && d.node(i) != noNode {
		return d.node(i)
	}
	return 0
}

// ProcStart returns process p's start hint; 0 for none.
func (d *Design) ProcStart(p model.ProcID) tm.Time {
	if i, ok := d.ord.procPos[p]; ok {
		return d.procStart(i)
	}
	return 0
}

// MsgStart returns message m's start hint; 0 for none.
func (d *Design) MsgStart(m model.MsgID) tm.Time {
	if j, ok := d.ord.msgPos[m]; ok {
		return d.msgStarts(j, 1)[0]
	}
	return 0
}

// Mapping returns the design's mapping as a fresh map.
func (d *Design) Mapping() model.Mapping {
	m := make(model.Mapping, len(d.ord.procs))
	for i, p := range d.ord.procs {
		if n := d.node(i); n != noNode {
			m[p.ID] = n
		}
	}
	return m
}

// Hints returns the design's hints as fresh maps holding every hint
// above 0; a map with no hint is nil.
func (d *Design) Hints() Hints {
	var h Hints
	for i, p := range d.ord.procs {
		if s := d.procStart(i); s > 0 {
			if h.ProcStart == nil {
				h.ProcStart = map[model.ProcID]tm.Time{}
			}
			h.ProcStart[p.ID] = s
		}
	}
	for j, m := range d.ord.msgs {
		if s := d.msgStarts(j, 1)[0]; s > 0 {
			if h.MsgStart == nil {
				h.MsgStart = map[model.MsgID]tm.Time{}
			}
			h.MsgStart[m.ID] = s
		}
	}
	return h
}

// decision is what a design decides for one process: its node (and the
// node's position) and its WCET there, its start hint, and the start
// hint of each of its in-messages in jobItem.ins order (0: no hint).
// Besides the state before a job and the job's predecessors, it is all
// that placing any job of the process reads.
type decision struct {
	node      model.NodeID
	ni        int
	wcet      tm.Time
	procStart tm.Time
	msgStart  []tm.Time
}

// candidate is a design with one move over it, read without copying the
// design: what a transaction places. proc and msg are the positions the
// move reaches (-1: none), with its node and start hint.
type candidate struct {
	d         *Design
	proc, msg int
	node      model.NodeID
	start     tm.Time
}

// over returns d with mv over it.
func (d *Design) over(mv Move) candidate {
	c := candidate{d: d, proc: -1, msg: -1, node: mv.Node, start: hint(mv.Start)}
	switch mv.Kind {
	case MoveProc:
		if i, ok := d.ord.procPos[mv.Proc]; ok {
			c.proc = i
		}
	case MoveMsg:
		if j, ok := d.ord.msgPos[mv.Msg]; ok {
			c.msg = j
		}
	}
	return c
}

// procOf returns the node and start hint c gives process position i.
func (c *candidate) procOf(i int) (model.NodeID, tm.Time) {
	if i == c.proc {
		return c.node, c.start
	}
	return c.d.node(i), c.d.procStart(i)
}

// decide writes c's decision for the process of jb into dc, whose
// msgStart must have room for jb's in-messages.
func (c *candidate) decide(jb *jobItem, dc *decision) error {
	o := c.d.ord
	node, start := c.procOf(jb.pos)
	if node == noNode {
		return fmt.Errorf("sched: process %d has no mapping", jb.proc.ID)
	}
	k := model.NodePos(o.nodes, node)
	if k < 0 || o.wcet[jb.pos*len(o.nodes)+k] == noWCET {
		return fmt.Errorf("sched: process %d cannot run on node %d", jb.proc.ID, node)
	}
	dc.node, dc.ni, dc.wcet, dc.procStart = node, k, o.wcet[jb.pos*len(o.nodes)+k], start
	copy(dc.msgStart, c.d.msgStarts(jb.hints, len(jb.ins)))
	if j := c.msg - jb.hints; j >= 0 && j < len(jb.ins) {
		dc.msgStart[j] = c.start
	}
	return nil
}

// decides reports whether c decides the process of jb as dc records.
func (c *candidate) decides(jb *jobItem, dc *decision) bool {
	if node, start := c.procOf(jb.pos); node != dc.node || start != dc.procStart {
		return false
	}
	j := c.msg - jb.hints
	for k, s := range c.d.msgStarts(jb.hints, len(jb.ins)) {
		if k == j {
			s = c.start
		}
		if s != dc.msgStart[k] {
			return false
		}
	}
	return true
}
