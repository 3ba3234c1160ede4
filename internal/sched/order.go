package sched

import (
	"fmt"
	"sort"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// jobOrder is an application's job list: every occurrence of every
// process over the hyperperiod, in the order the list scheduler places
// them, with each job's in-messages resolved to the order position of
// the job that produces them. It depends only on the application and
// the horizon (the priorities use average WCETs and bus 0's delay
// estimate), never on a mapping, hints or what the state holds, so a
// transaction keeps the order of the application it last applied
// (Txn.Apply) and every later candidate of that application reuses it.
//
// Placing the order appends exactly one process entry per job, in
// order, so while a call runs the job at position i sits at
// procs[callStart+i], where callStart is the procs length the call began
// at: that is how a job finds its predecessors' nodes and finish times.
type jobOrder struct {
	app  *model.Application
	jobs []jobItem
}

// jobItem is one schedulable unit with its precomputed ordering keys
// and in-messages.
type jobItem struct {
	graph *model.Graph
	proc  *model.Process
	occ   int
	prio  tm.Time
	topo  int
	ins   []inMsg
}

// inMsg is one message a job consumes, in the graph's declaration
// order, with the order position of its producer: the same occurrence
// of the message's source process, always earlier in the order.
type inMsg struct {
	msg  *model.Message
	pred int
}

// orderJobs expands an application into its hyperperiod job set, ordered
// by decreasing priority, and resolves every job's in-messages to order
// positions. Priority strictly decreases along graph edges, so the order
// is a valid scheduling order.
func (s *State) orderJobs(app *model.Application) (*jobOrder, error) {
	var jobs []jobItem
	for _, g := range app.Graphs {
		if s.horizon%g.Period != 0 {
			return nil, fmt.Errorf("sched: graph %d period %v does not divide horizon %v",
				g.ID, g.Period, s.horizon)
		}
		prio := Priorities(g, s.sys.Arch.Buses[0])
		order, err := g.TopoOrder()
		if err != nil {
			return nil, err
		}
		topoPos := make(map[model.ProcID]int, len(order))
		for i, p := range order {
			topoPos[p.ID] = i
		}
		occs := s.Occurrences(g.Period)
		for _, p := range g.Procs {
			for occ := 0; occ < occs; occ++ {
				jobs = append(jobs, jobItem{
					graph: g, proc: p, occ: occ,
					prio: prio[p.ID], topo: topoPos[p.ID],
				})
			}
		}
	}
	sortJobs(jobs)

	// The occurrences of a process are adjacent and ascending, so job
	// (p, occ) sits at first[p] + occ.
	first := make(map[model.ProcID]int, app.NumProcs())
	nIns := 0
	for i := len(jobs) - 1; i >= 0; i-- {
		first[jobs[i].proc.ID] = i
		nIns += len(jobs[i].graph.InMsgs(jobs[i].proc.ID))
	}
	ins := make([]inMsg, 0, nIns)
	for i := range jobs {
		jb := &jobs[i]
		from := len(ins)
		for _, m := range jb.graph.InMsgs(jb.proc.ID) {
			pred := first[m.Src] + jb.occ
			if pred >= i || jobs[pred].proc.ID != m.Src || jobs[pred].occ != jb.occ {
				return nil, fmt.Errorf("sched: internal: predecessor %d of %d not ordered before it", m.Src, jb.proc.ID)
			}
			ins = append(ins, inMsg{msg: m, pred: pred})
		}
		jb.ins = ins[from:]
	}
	return &jobOrder{app: app, jobs: jobs}, nil
}

// sortJobs orders jobs for the list scheduler: higher partial-critical-
// path priority first, with every occurrence of a process kept together
// (ascending). Priority strictly decreases along graph edges, so all jobs
// of a predecessor precede all jobs of its successors — which both
// respects precedence and lets the mapper verify every occurrence of a
// process before committing its node binding.
func sortJobs(jobs []jobItem) {
	sort.Slice(jobs, func(i, j int) bool {
		a, b := &jobs[i], &jobs[j]
		if a.prio != b.prio {
			return a.prio > b.prio
		}
		if a.topo != b.topo {
			return a.topo < b.topo
		}
		if a.graph.ID != b.graph.ID {
			return a.graph.ID < b.graph.ID
		}
		if a.proc.ID != b.proc.ID {
			return a.proc.ID < b.proc.ID
		}
		return a.occ < b.occ
	})
}
