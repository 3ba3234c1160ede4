package sched

import (
	"fmt"
	"sort"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Order is an application's job list: every occurrence of every process
// over the hyperperiod, in the order the list scheduler places them,
// with each job's in-messages resolved to the order position of the job
// that produces them. It depends only on the application and the horizon
// (the priorities use average WCETs and bus 0's delay estimate), never on
// a mapping, hints or what the state holds, so one Order serves every
// design of the application: a Solve builds it once (State.Order) and
// shares it read-only with every worker.
//
// The order also numbers what a design decides, so that placing a job
// indexes instead of hashing. A process's position is the rank of its
// first job among the first jobs; a message's position is its rank among
// the in-messages of those first jobs, in order, so the in-messages of
// one process hold consecutive positions. Design is a vector over these
// positions, and each process's WCETs are a row over the architecture's
// node positions (its node IDs, ascending).
//
// Placing the order appends exactly one process entry per job, in
// order, so while a call runs the job at position i sits at
// procs[callStart+i], where callStart is the procs length the call began
// at: that is how a job finds its predecessors' nodes and finish times.
//
// The occurrences of a process are adjacent and ascending, so the job of
// occurrence k sits k positions after its process's first job, and every
// job of a process decides like the first: same node, same start hint,
// same in-messages.
type Order struct {
	app   *model.Application
	jobs  []jobItem
	nodes []model.NodeID // the architecture's node IDs, ascending

	// By process position: the process, its first job (the first job a
	// process move reaches) and its WCET row, one entry per node
	// position, noWCET where the process cannot run.
	procs   []*model.Process
	procJob []int
	wcet    []tm.Time
	// By message position: the message and the first job of its
	// consumer (the first job a message move reaches).
	msgs   []*model.Message
	msgJob []int

	// procPos finds a process's position by ID. msgPos, the same for
	// messages, and allowed, each process's allowed nodes ascending, are
	// built only by State.Order: the orders ScheduleApp and MapApp build
	// per call never read them.
	procPos map[model.ProcID]int
	msgPos  map[model.MsgID]int
	allowed [][]model.NodeID
}

// noWCET marks a node a process cannot run on in an Order's WCET rows.
const noWCET tm.Time = -1

// jobItem is one schedulable unit with its precomputed ordering keys
// and in-messages. pos is its process's position and hints the position
// of its process's first in-message, the same for every occurrence.
type jobItem struct {
	graph *model.Graph
	proc  *model.Process
	occ   int
	prio  tm.Time
	topo  int
	ins   []inMsg
	pos   int
	hints int
}

// inMsg is one message a job consumes, in the graph's declaration
// order, with the order position of its producer: the same occurrence
// of the message's source process, always earlier in the order.
type inMsg struct {
	msg  *model.Message
	pred int
}

// Order builds app's job order over the state's horizon and
// architecture with everything a strategy reads by ID: the message
// positions and each process's allowed nodes. A Solve builds one and
// shares it with every worker; designs of app are vectors over it.
func (s *State) Order(app *model.Application) (*Order, error) {
	o, err := s.orderJobs(app)
	if err != nil {
		return nil, err
	}
	o.msgPos = make(map[model.MsgID]int, len(o.msgs))
	for j, m := range o.msgs {
		o.msgPos[m.ID] = j
	}
	n := len(o.nodes)
	all := make([]model.NodeID, 0, len(o.wcet))
	o.allowed = make([][]model.NodeID, len(o.procs))
	for i := range o.procs {
		from := len(all)
		for k, w := range o.wcet[i*n : (i+1)*n] {
			if w != noWCET {
				all = append(all, o.nodes[k])
			}
		}
		o.allowed[i] = all[from:len(all):len(all)]
	}
	return o, nil
}

// orderJobs expands an application into its hyperperiod job set, ordered
// by decreasing priority, resolves every job's in-messages to order
// positions and numbers the processes and messages. Priority strictly
// decreases along graph edges, so the order is a valid scheduling order.
func (s *State) orderJobs(app *model.Application) (*Order, error) {
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

	// Number the processes by their first jobs. The occurrences of a
	// process are adjacent and ascending, so job (p, occ) sits at
	// procJob[pos(p)] + occ.
	nProcs := app.NumProcs()
	o := &Order{
		app: app, jobs: jobs, nodes: s.nodes,
		procs:   make([]*model.Process, 0, nProcs),
		procJob: make([]int, 0, nProcs),
		procPos: make(map[model.ProcID]int, nProcs),
	}
	nIns := 0
	for i := range jobs {
		jb := &jobs[i]
		if jb.occ == 0 {
			o.procPos[jb.proc.ID] = len(o.procs)
			o.procs = append(o.procs, jb.proc)
			o.procJob = append(o.procJob, i)
		}
		jb.pos = len(o.procs) - 1
		nIns += len(jb.graph.InMsgs(jb.proc.ID))
	}
	ins := make([]inMsg, 0, nIns)
	for i := range jobs {
		jb := &jobs[i]
		from := len(ins)
		for _, m := range jb.graph.InMsgs(jb.proc.ID) {
			pred := o.procJob[o.procPos[m.Src]] + jb.occ
			if pred >= i || jobs[pred].proc.ID != m.Src || jobs[pred].occ != jb.occ {
				return nil, fmt.Errorf("sched: internal: predecessor %d of %d not ordered before it", m.Src, jb.proc.ID)
			}
			ins = append(ins, inMsg{msg: m, pred: pred})
		}
		jb.ins = ins[from:]
		if jb.occ == 0 {
			jb.hints = len(o.msgs)
			for _, in := range jb.ins {
				o.msgs = append(o.msgs, in.msg)
				o.msgJob = append(o.msgJob, i)
			}
		} else {
			jb.hints = jobs[i-jb.occ].hints
		}
	}

	n := len(o.nodes)
	o.wcet = make([]tm.Time, len(o.procs)*n)
	for i, p := range o.procs {
		row := o.wcet[i*n : (i+1)*n]
		for k := range row {
			row[k] = noWCET
		}
		for node, w := range p.WCET {
			if k := model.NodePos(o.nodes, node); k >= 0 {
				row[k] = w
			}
		}
	}
	return o, nil
}

// AllowedNodes returns the nodes process p may be mapped to, ascending
// (do not modify); nil for a process outside the order's application.
func (o *Order) AllowedNodes(p model.ProcID) []model.NodeID {
	if i, ok := o.procPos[p]; ok {
		return o.allowed[i]
	}
	return nil
}

// MoveJob returns the order position of the first job mv reaches: the
// moved process's first job, or the first job of the moved message's
// consumer. It returns the number of jobs for the zero move or an ID the
// application lacks. A design that differs from another by moves decides
// alike every job before the least of their positions, which is what a
// caller of Txn.Replace vouches for with from.
func (o *Order) MoveJob(mv Move) int {
	switch mv.Kind {
	case MoveProc:
		if i, ok := o.procPos[mv.Proc]; ok {
			return o.procJob[i]
		}
	case MoveMsg:
		if j, ok := o.msgPos[mv.Msg]; ok {
			return o.msgJob[j]
		}
	}
	return len(o.jobs)
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
