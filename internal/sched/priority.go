package sched

import (
	"incdes/internal/model"
	"incdes/internal/tm"
)

// Priorities computes the partial-critical-path priority of every process
// of a graph, as used by the Heterogeneous Critical Path algorithm
// (Jorgensen & Madsen, CODES '97): the length of the longest path from the
// process to any sink, using the average WCET as the node-independent
// execution estimate and an expected bus delay for each message.
//
// The priority of a predecessor is strictly greater than that of any of
// its successors (WCETs are positive), so scheduling in decreasing
// priority order always respects precedence.
func Priorities(g *model.Graph, bus *model.Bus) map[model.ProcID]tm.Time {
	g.Finalize()
	prio := make(map[model.ProcID]tm.Time, len(g.Procs))
	order, err := g.TopoOrder()
	if err != nil {
		// Validation catches cycles long before scheduling; an invalid
		// graph here is a programming error.
		panic("sched.Priorities: " + err.Error())
	}
	for i := len(order) - 1; i >= 0; i-- {
		p := order[i]
		best := tm.Time(0)
		for _, m := range g.OutMsgs(p.ID) {
			c := CommEstimate(m, bus) + prio[m.Dst]
			best = tm.Max(best, c)
		}
		prio[p.ID] = p.AvgWCET() + best
	}
	return prio
}

// CommEstimate returns the expected bus delay of a message before its
// endpoints are mapped: the transmission time of its bytes plus half a
// TDMA round of expected waiting for the sender's slot. Messages between
// co-located processes ultimately cost nothing, but the estimate must not
// assume a mapping.
func CommEstimate(m *model.Message, bus *model.Bus) tm.Time {
	return tm.Time(m.Bytes)*bus.ByteTime + bus.RoundLen()/2
}
