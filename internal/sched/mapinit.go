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
	jobs := ord.jobs
	sp := s.mark()
	mapping := model.Mapping{}
	for i := 0; i < len(jobs); {
		// The job list keeps all occurrences of a process adjacent, after
		// every job of its predecessors.
		j := i
		for j < len(jobs) && jobs[j].proc.ID == jobs[i].proc.ID {
			j++
		}
		run := jobs[i:j]
		node, ok := s.bestNode(app, run, sp.procs, hints)
		if !ok {
			s.undo(sp)
			return nil, fmt.Errorf("sched: process %d fits on no allowed node (all %d occurrences considered)",
				run[0].proc.ID, len(run))
		}
		mapping[run[0].proc.ID] = node
		// Occurrences of one process use disjoint time windows on every
		// node and bus (model.Validate keeps each deadline within its
		// period), so placing one cannot change where another fits: a
		// run whose trials all passed always places.
		for k := range run {
			if err := s.scheduleJob(app, &run[k], sp.procs, mapping, hints); err != nil {
				s.undo(sp)
				return nil, fmt.Errorf("sched: internal: process %d occ %d failed on node %d after its trial fit: %w",
					run[k].proc.ID, run[k].occ, node, err)
			}
		}
		i = j
	}
	return mapping, nil
}

// bestNode tries every allowed node against every occurrence of the
// process in run and returns the node with the earliest first-occurrence
// finish among those where every occurrence fits; AllowedNodes is
// ascending, so ties go to the lowest node ID. Each trial runs the
// placing half of scheduleJob and undoes it to a savepoint, so every
// occurrence is tried against the state before the run and nothing is
// counted as placed. callStart is where MapApp's jobs begin in procs.
func (s *State) bestNode(app *model.Application, run []jobItem, callStart int, hints Hints) (model.NodeID, bool) {
	p := run[0].proc
	sp := s.mark()
	var best model.NodeID
	bestEnd := tm.Infinity
	found := false
	for _, node := range p.AllowedNodes() {
		wcet := p.WCET[node]
		var end tm.Time
		fits := true
		for k := range run {
			start, err := s.placeJob(app, &run[k], callStart, node, wcet, hints)
			s.undo(sp)
			if err != nil {
				fits = false
				break
			}
			if k == 0 {
				end = start + wcet
			}
		}
		if fits && end < bestEnd {
			best, bestEnd, found = node, end, true
		}
	}
	return best, found
}
