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
	mapping := make(model.Mapping, len(ord.procs))
	n := len(ord.nodes)
	var msgStart []tm.Time
	for pos, p := range ord.procs {
		// The job list keeps all occurrences of a process adjacent, after
		// every job of its predecessors.
		end := len(jobs)
		if pos+1 < len(ord.procs) {
			end = ord.procJob[pos+1]
		}
		run := jobs[ord.procJob[pos]:end]
		dc := decision{procStart: hints.ProcStart[p.ID], msgStart: msgStart[:0]}
		for _, in := range run[0].ins {
			dc.msgStart = append(dc.msgStart, hints.MsgStart[in.msg.ID])
		}
		msgStart = dc.msgStart
		if !s.bestNode(app, run, sp.procs, ord.wcet[pos*n:(pos+1)*n], &dc) {
			s.undo(sp)
			return nil, fmt.Errorf("sched: process %d fits on no allowed node (all %d occurrences considered)",
				p.ID, len(run))
		}
		mapping[p.ID] = dc.node
		// Occurrences of one process use disjoint time windows on every
		// node and bus (model.Validate keeps each deadline within its
		// period), so placing one cannot change where another fits: a
		// run whose trials all passed always places.
		for k := range run {
			if err := s.scheduleJob(app, &run[k], sp.procs, &dc); err != nil {
				s.undo(sp)
				return nil, fmt.Errorf("sched: internal: process %d occ %d failed on node %d after its trial fit: %w",
					run[k].proc.ID, run[k].occ, dc.node, err)
			}
		}
	}
	return mapping, nil
}

// bestNode tries every allowed node against every occurrence of the
// process in run and sets dc's node (and WCET) to the node with the
// earliest first-occurrence finish among those where every occurrence
// fits, reporting whether there is one. wcet is the process's WCET row
// in its order, by node position: the allowed nodes are tried in
// ascending ID order, so ties go to the lowest node ID. dc carries the
// process's hints. Each trial runs the placing half of scheduleJob and
// undoes it to a savepoint, so every occurrence is tried against the
// state before the run and nothing is counted as placed. callStart is
// where MapApp's jobs begin in procs.
func (s *State) bestNode(app *model.Application, run []jobItem, callStart int, wcet []tm.Time, dc *decision) bool {
	sp := s.mark()
	best := *dc
	bestEnd := tm.Infinity
	found := false
	for ni, w := range wcet {
		if w == noWCET {
			continue
		}
		trial := *dc
		trial.node, trial.ni, trial.wcet = s.nodes[ni], ni, w
		var end tm.Time
		fits := true
		for k := range run {
			start, err := s.placeJob(app, &run[k], callStart, &trial)
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
	*dc = best
	return found
}
