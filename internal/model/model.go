// Package model defines the application and architecture model of the
// paper: process graphs with periods and deadlines, heterogeneous WCET
// tables, messages, applications, and the TTP-based target architecture
// (nodes attached to a TDMA bus).
//
// An Application is a set of process graphs; each graph has its own period
// and deadline. A System is an architecture plus the applications living on
// it, in arrival order: in the incremental design process the earlier
// applications are "existing" (frozen mapping and schedule) and the last
// one is typically the "current" application being mapped.
package model

import (
	"fmt"
	"sort"

	"incdes/internal/tm"
)

// NodeID identifies a processing node of the architecture.
type NodeID int

// ProcID identifies a process, unique across the whole system.
type ProcID int

// MsgID identifies a message, unique across the whole system.
type MsgID int

// GraphID identifies a process graph, unique across the whole system.
type GraphID int

// AppID identifies an application, unique across the whole system.
type AppID int

// Process is a non-preemptable unit of computation. Its worst-case
// execution time depends on which node it runs on (the architecture is
// heterogeneous); nodes absent from the WCET table cannot host it.
type Process struct {
	ID   ProcID             `json:"id"`
	Name string             `json:"name,omitempty"`
	WCET map[NodeID]tm.Time `json:"wcet"`
}

// AllowedNodes returns the nodes this process may be mapped to, ascending.
func (p *Process) AllowedNodes() []NodeID {
	nodes := make([]NodeID, 0, len(p.WCET))
	for n := range p.WCET {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// AvgWCET returns the mean WCET over the allowed nodes. It is the
// node-independent execution estimate used by priority functions and by
// the C1 metric (where the future process is not yet bound to a node).
func (p *Process) AvgWCET() tm.Time {
	if len(p.WCET) == 0 {
		return 0
	}
	var sum tm.Time
	for _, w := range p.WCET {
		sum += w
	}
	return sum / tm.Time(len(p.WCET))
}

// MaxWCET returns the largest WCET over the allowed nodes.
func (p *Process) MaxWCET() tm.Time {
	var m tm.Time
	for _, w := range p.WCET {
		m = tm.Max(m, w)
	}
	return m
}

// Message is a directed communication between two processes of the same
// graph. If both endpoints end up on the same node the message is exchanged
// through shared memory at zero cost; otherwise it occupies Bytes of a TDMA
// slot belonging to the sender's node.
type Message struct {
	ID    MsgID  `json:"id"`
	Name  string `json:"name,omitempty"`
	Src   ProcID `json:"src"`
	Dst   ProcID `json:"dst"`
	Bytes int    `json:"bytes"`
}

// Graph is a directed acyclic process graph released periodically with
// Period; every process of occurrence k, released at k*Period, must finish
// by k*Period + Deadline.
type Graph struct {
	ID       GraphID    `json:"id"`
	Name     string     `json:"name,omitempty"`
	Period   tm.Time    `json:"period"`
	Deadline tm.Time    `json:"deadline"`
	Procs    []*Process `json:"procs"`
	Msgs     []*Message `json:"msgs"`

	succs map[ProcID][]*Message
	preds map[ProcID][]*Message
}

// buildAdj builds the adjacency caches. A graph is immutable once
// finalized: Finalize never rebuilds the caches, and the scheduler keeps
// per-application job orders keyed by pointer (sched.Txn), so a changed
// graph or application must be built anew. The Builder resets the caches only while
// it is still adding processes and messages.
func (g *Graph) buildAdj() {
	g.succs = make(map[ProcID][]*Message, len(g.Procs))
	g.preds = make(map[ProcID][]*Message, len(g.Procs))
	for _, m := range g.Msgs {
		g.succs[m.Src] = append(g.succs[m.Src], m)
		g.preds[m.Dst] = append(g.preds[m.Dst], m)
	}
}

// Finalize builds internal adjacency caches. It is idempotent and called
// automatically by Validate and the accessors below.
func (g *Graph) Finalize() {
	if g.succs == nil {
		g.buildAdj()
	}
}

// OutMsgs returns the messages produced by p, in declaration order.
func (g *Graph) OutMsgs(p ProcID) []*Message { g.Finalize(); return g.succs[p] }

// InMsgs returns the messages consumed by p, in declaration order.
func (g *Graph) InMsgs(p ProcID) []*Message { g.Finalize(); return g.preds[p] }

// TopoOrder returns the processes in a topological order, or an error if
// the graph has a cycle or a message references an unknown process.
func (g *Graph) TopoOrder() ([]*Process, error) {
	g.Finalize()
	byID := make(map[ProcID]*Process, len(g.Procs))
	indeg := make(map[ProcID]int, len(g.Procs))
	for _, p := range g.Procs {
		if _, dup := byID[p.ID]; dup {
			return nil, fmt.Errorf("model: graph %q: duplicate process id %d", g.Name, p.ID)
		}
		byID[p.ID] = p
		indeg[p.ID] = 0
	}
	for _, m := range g.Msgs {
		if _, ok := byID[m.Src]; !ok {
			return nil, fmt.Errorf("model: graph %q: message %d has unknown source %d", g.Name, m.ID, m.Src)
		}
		if _, ok := byID[m.Dst]; !ok {
			return nil, fmt.Errorf("model: graph %q: message %d has unknown destination %d", g.Name, m.ID, m.Dst)
		}
		indeg[m.Dst]++
	}
	// Kahn's algorithm with a deterministic queue (declaration order).
	queue := make([]*Process, 0, len(g.Procs))
	for _, p := range g.Procs {
		if indeg[p.ID] == 0 {
			queue = append(queue, p)
		}
	}
	order := make([]*Process, 0, len(g.Procs))
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		order = append(order, p)
		for _, m := range g.succs[p.ID] {
			indeg[m.Dst]--
			if indeg[m.Dst] == 0 {
				queue = append(queue, byID[m.Dst])
			}
		}
	}
	if len(order) != len(g.Procs) {
		return nil, fmt.Errorf("model: graph %q contains a cycle", g.Name)
	}
	return order, nil
}

// Application is a set of process graphs delivered as one unit of
// functionality (one increment of the design process).
type Application struct {
	ID     AppID    `json:"id"`
	Name   string   `json:"name,omitempty"`
	Graphs []*Graph `json:"graphs"`
}

// NumProcs returns the total number of processes over all graphs.
func (a *Application) NumProcs() int {
	n := 0
	for _, g := range a.Graphs {
		n += len(g.Procs)
	}
	return n
}

// NumMsgs returns the total number of messages over all graphs.
func (a *Application) NumMsgs() int {
	n := 0
	for _, g := range a.Graphs {
		n += len(g.Msgs)
	}
	return n
}

// System is the complete design-space input: the architecture and the
// applications placed on it, in arrival order.
type System struct {
	Arch *Architecture  `json:"arch"`
	Apps []*Application `json:"apps"`
}

// Hyperperiod returns the static cyclic schedule horizon: the least common
// multiple of every graph period and of every bus's TDMA round length (each
// TTP cluster cycle must divide the schedule for it to wrap consistently).
// It returns 0 when the system has no such horizon — a period or round
// that is not positive, or a multiple beyond tm.Infinity. Validate rejects
// such a system and says why.
func (s *System) Hyperperiod() tm.Time {
	hp, _ := s.hyperperiod()
	return hp
}

func (s *System) hyperperiod() (tm.Time, error) {
	ts := make([]tm.Time, 0, len(s.Arch.Buses)+4)
	for _, b := range s.Arch.Buses {
		ts = append(ts, b.RoundLen())
	}
	for _, a := range s.Apps {
		for _, g := range a.Graphs {
			ts = append(ts, g.Period)
		}
	}
	return tm.LCMAll(ts)
}

// Index provides O(1) lookups from IDs to model objects across a set of
// applications. Build one per scheduling problem rather than per query.
type Index struct {
	Proc     map[ProcID]*Process
	Msg      map[MsgID]*Message
	GraphOf  map[ProcID]*Graph
	MsgGraph map[MsgID]*Graph
	AppOf    map[GraphID]*Application
}

// NewIndex indexes the given applications. Duplicate IDs across
// applications are a model error and reported by Validate, not here.
func NewIndex(apps ...*Application) *Index {
	ix := &Index{
		Proc:     map[ProcID]*Process{},
		Msg:      map[MsgID]*Message{},
		GraphOf:  map[ProcID]*Graph{},
		MsgGraph: map[MsgID]*Graph{},
		AppOf:    map[GraphID]*Application{},
	}
	for _, a := range apps {
		for _, g := range a.Graphs {
			ix.AppOf[g.ID] = a
			for _, p := range g.Procs {
				ix.Proc[p.ID] = p
				ix.GraphOf[p.ID] = g
			}
			for _, m := range g.Msgs {
				ix.Msg[m.ID] = m
				ix.MsgGraph[m.ID] = g
			}
		}
	}
	return ix
}

// Mapping assigns each process to a node.
type Mapping map[ProcID]NodeID

// Clone returns an independent copy of the mapping.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
