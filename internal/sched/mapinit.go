package sched

import (
	"fmt"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// MapApp constructs a mapping for app while scheduling it, following the
// Heterogeneous Critical Path strategy: jobs are visited in decreasing
// partial-critical-path priority; the first time a process is visited it
// is bound to the allowed node on which its first occurrence would
// finish earliest (accounting for inter-node messages over the TDMA bus
// and for the slack left by everything already in the state), among the
// nodes where every one of its occurrences fits. A process is mapped
// once, so all of its occurrences then run on that node.
//
// On success the application is fully scheduled into the state and the
// mapping is returned. On failure MapApp undoes its own placements to the
// savepoint it took on entry, so the state is exactly as before. Like
// ScheduleApp, it builds the application's job order on every call.
func (s *State) MapApp(app *model.Application, hints Hints) (model.Mapping, error) {
	ord, err := s.orderJobs(app)
	if err != nil {
		return nil, err
	}
	seed := ord.Design(nil, hints)
	var pl placement
	if err := s.placeAll(&pl, seed, true); err != nil {
		return nil, err
	}
	return seed.mapped(pl.decs).Mapping(), nil
}

// bestNode is the initial mapping's decision for the process whose first
// job is job i of o: it tries every allowed node (ascending, so ties go
// to the lowest ID) against every occurrence and sets dc's node and WCET
// to the node with the earliest first-occurrence finish among those
// where every occurrence fits, failing when there is none. dc carries
// the process's hints. Each trial runs placeJob and undoes it, so every
// occurrence is tried against the state before the process; callStart
// is where the placement's jobs begin in procs. Occurrences of one
// process use disjoint time windows on every node and bus (model.Validate
// keeps each deadline within its period), so placing one cannot change
// where another fits: a process whose trials passed always places.
func (s *State) bestNode(o *Order, i, callStart int, dc *decision) error {
	jb := &o.jobs[i]
	run := o.jobs[i : i+s.Occurrences(jb.graph.Period)] // adjacent occurrences
	n := len(o.nodes)
	sp := s.mark()
	best := *dc
	bestEnd := tm.Infinity
	found := false
	for ni, w := range o.wcet[jb.pos*n : (jb.pos+1)*n] {
		if w == noWCET {
			continue
		}
		trial := *dc
		trial.node, trial.ni, trial.wcet = s.nodes[ni], ni, w
		var end tm.Time
		fits := true
		for k := range run {
			start, err := s.placeJob(o.app, &run[k], callStart, &trial)
			s.undo(sp)
			if err != nil {
				fits = false
				break
			}
			if k == 0 {
				end = start + trial.wcet
			}
		}
		if fits && end < bestEnd {
			best, bestEnd, found = trial, end, true
		}
	}
	if !found {
		return fmt.Errorf("sched: process %d fits on no allowed node (all %d occurrences considered)",
			jb.proc.ID, len(run))
	}
	*dc = best
	return nil
}
