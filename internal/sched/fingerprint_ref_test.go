package sched

import (
	"fmt"
	"sort"

	"incdes/internal/model"
)

// fingerprintFmt is the fmt rendering State.Fingerprint replaced, kept
// verbatim as the reference its bytes must equal: stored session
// documents verify replay against SHA-256 digests of these bytes.
func fingerprintFmt(s *State) []byte {
	var b []byte
	b = fmt.Appendf(b, "horizon=%d\n", s.horizon)
	for _, n := range s.sys.Arch.NodeIDs() {
		b = fmt.Appendf(b, "busy[%d]=%v\n", n, s.Busy(n).Intervals())
	}
	for bi, bst := range s.buses {
		for r := 0; r < bst.Rounds(); r++ {
			for sl := 0; sl < bst.Bus().NumSlots(); sl++ {
				if u := bst.Used(r, sl); u != 0 {
					// Bus 0 keeps the historical single-bus key so every
					// pre-multi-cluster fingerprint stays byte-identical.
					if bi == 0 {
						b = fmt.Appendf(b, "bus[%d,%d]=%d\n", r, sl, u)
					} else {
						b = fmt.Appendf(b, "bus%d[%d,%d]=%d\n", bi, r, sl, u)
					}
				}
			}
		}
	}
	for _, e := range s.procs {
		b = fmt.Appendf(b, "proc=%+v\n", e)
	}
	for _, m := range s.msgs {
		// The explicit layout reproduces the historical %+v rendering of
		// the pre-multi-cluster MsgEntry; Bus/Hop are appended only when
		// set, so single-bus fingerprints keep their exact bytes.
		b = fmt.Appendf(b, "msg={App:%d Graph:%d Msg:%d Occ:%d Round:%d Slot:%d Bytes:%d Sender:%d Receiver:%d Ready:%v Start:%v Arrive:%v}",
			m.App, m.Graph, m.Msg, m.Occ, m.Round, m.Slot, m.Bytes, m.Sender, m.Receiver, m.Ready, m.Start, m.Arrive)
		if m.Bus != 0 || m.Hop != 0 {
			b = fmt.Appendf(b, " bus=%d hop=%d", m.Bus, m.Hop)
		}
		b = append(b, '\n')
	}
	// The job and mapping lines are views of the process entries, sorted
	// by job and by process; a later entry of the same job or process
	// wins.
	last := make(map[Job]ProcEntry, len(s.procs))
	for _, e := range s.procs {
		last[Job{Proc: e.Proc, Occ: e.Occ}] = e
	}
	jobs := make([]Job, 0, len(last))
	for j := range last {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].Proc != jobs[j].Proc {
			return jobs[i].Proc < jobs[j].Proc
		}
		return jobs[i].Occ < jobs[j].Occ
	})
	for _, j := range jobs {
		b = fmt.Appendf(b, "job=%+v end=%d node=%d\n", j, last[j].End, last[j].Node)
	}
	mapping := s.Mapping()
	procs := make([]model.ProcID, 0, len(mapping))
	for p := range mapping {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, p := range procs {
		b = fmt.Appendf(b, "map[%d]=%d\n", p, mapping[p])
	}
	return b
}
