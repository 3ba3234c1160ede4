package session

import (
	"fmt"
	"slices"
	"sort"

	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// Kinds of per-process placement change reported by Diff.
const (
	DeltaAdded   = "added"   // process exists only in the "to" version
	DeltaRemoved = "removed" // process exists only in the "from" version
	DeltaMoved   = "moved"   // same process, different node
	DeltaShifted = "shifted" // same process and node, different start offset
)

// ProcDelta is one changed process placement between two versions,
// compared on the first occurrence of each process in the cyclic
// schedule.
type ProcDelta struct {
	Proc model.ProcID `json:"proc"`
	App  string       `json:"app"`
	Kind string       `json:"kind"`

	FromNode  model.NodeID `json:"from_node,omitempty"`
	ToNode    model.NodeID `json:"to_node,omitempty"`
	FromStart tm.Time      `json:"from_start,omitempty"`
	ToStart   tm.Time      `json:"to_start,omitempty"`
}

// Diff is the placement and metric delta between two versions of a
// session. Because commits only ever add to a frozen composite, a diff
// along one chain shows pure growth; diffing across branches (two
// what-if alternatives) additionally surfaces moves and shifts between
// the alternatives' placements of the same applications.
type Diff struct {
	From int `json:"from"`
	To   int `json:"to"`

	// Application membership delta, by name.
	AppsAdded   []string `json:"apps_added,omitempty"`
	AppsRemoved []string `json:"apps_removed,omitempty"`

	// Procs lists every process whose first-occurrence placement
	// differs, sorted by process ID.
	Procs []ProcDelta `json:"procs,omitempty"`

	// Message-schedule summary: bus slot occurrences present in only one
	// version, and messages present in both whose first occurrence uses a
	// different bus, round or slot on any hop.
	MsgsAdded   int `json:"msgs_added"`
	MsgsRemoved int `json:"msgs_removed"`
	MsgsRetimed int `json:"msgs_retimed"`

	// Metric delta: the full report of both endpoints and the objective
	// difference (negative means "to" scores better).
	FromReport     metrics.Report `json:"from_report"`
	ToReport       metrics.Report `json:"to_report"`
	ObjectiveDelta float64        `json:"objective_delta"`
}

// procOcc0 indexes a state's first process occurrences by process ID.
func procOcc0(st *sched.State) map[model.ProcID]sched.ProcEntry {
	out := map[model.ProcID]sched.ProcEntry{}
	for _, e := range st.ProcEntries() {
		if e.Occ == 0 {
			out[e.Proc] = e
		}
	}
	return out
}

// hop is where one hop of a message occurrence is transmitted.
type hop struct {
	bus         model.BusID
	round, slot int
}

// msgOcc0 indexes a state's first message occurrences by message ID:
// every hop of the occurrence, in route order (the order the scheduler
// appends them).
func msgOcc0(st *sched.State) map[model.MsgID][]hop {
	out := map[model.MsgID][]hop{}
	for _, e := range st.MsgEntries() {
		if e.Occ == 0 {
			out[e.Msg] = append(out[e.Msg], hop{e.Bus, e.Round, e.Slot})
		}
	}
	return out
}

// appNames maps every process of a system to its application's name.
func appNames(sys *model.System) map[model.ProcID]string {
	out := map[model.ProcID]string{}
	for _, app := range sys.Apps {
		for _, g := range app.Graphs {
			for _, p := range g.Procs {
				out[p.ID] = app.Name
			}
		}
	}
	return out
}

// Diff compares two versions of the session. Both must exist; they need
// not share a branch or an ancestry relation.
func (s *Session) Diff(from, to int) (*Diff, error) {
	s.mu.Lock()
	fromSt, err := s.stateAtLocked(from)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	toSt, err := s.stateAtLocked(to)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	fromRep := s.doc.Versions[from].Report
	toRep := s.doc.Versions[to].Report
	s.mu.Unlock()

	d := &Diff{
		From: from, To: to,
		FromReport:     fromRep,
		ToReport:       toRep,
		ObjectiveDelta: toRep.Objective - fromRep.Objective,
	}

	fromSys, toSys := fromSt.System(), toSt.System()
	fromApps := map[string]bool{}
	for _, a := range fromSys.Apps {
		fromApps[a.Name] = true
	}
	toApps := map[string]bool{}
	for _, a := range toSys.Apps {
		toApps[a.Name] = true
	}
	for name := range toApps {
		if !fromApps[name] {
			d.AppsAdded = append(d.AppsAdded, name)
		}
	}
	for name := range fromApps {
		if !toApps[name] {
			d.AppsRemoved = append(d.AppsRemoved, name)
		}
	}
	sort.Strings(d.AppsAdded)
	sort.Strings(d.AppsRemoved)

	fp, tp := procOcc0(fromSt), procOcc0(toSt)
	names := appNames(fromSys)
	for id, name := range appNames(toSys) {
		names[id] = name
	}
	for id, fe := range fp {
		te, ok := tp[id]
		switch {
		case !ok:
			d.Procs = append(d.Procs, ProcDelta{
				Proc: id, App: names[id], Kind: DeltaRemoved,
				FromNode: fe.Node, FromStart: fe.Start,
			})
		case te.Node != fe.Node:
			d.Procs = append(d.Procs, ProcDelta{
				Proc: id, App: names[id], Kind: DeltaMoved,
				FromNode: fe.Node, ToNode: te.Node,
				FromStart: fe.Start, ToStart: te.Start,
			})
		case te.Start != fe.Start:
			d.Procs = append(d.Procs, ProcDelta{
				Proc: id, App: names[id], Kind: DeltaShifted,
				FromNode: fe.Node, ToNode: te.Node,
				FromStart: fe.Start, ToStart: te.Start,
			})
		}
	}
	for id, te := range tp {
		if _, ok := fp[id]; !ok {
			d.Procs = append(d.Procs, ProcDelta{
				Proc: id, App: names[id], Kind: DeltaAdded,
				ToNode: te.Node, ToStart: te.Start,
			})
		}
	}
	sort.Slice(d.Procs, func(i, j int) bool { return d.Procs[i].Proc < d.Procs[j].Proc })

	fm, tom := msgOcc0(fromSt), msgOcc0(toSt)
	for id, fe := range fm {
		te, ok := tom[id]
		switch {
		case !ok:
			d.MsgsRemoved++
		case !slices.Equal(te, fe):
			d.MsgsRetimed++
		}
	}
	for id := range tom {
		if _, ok := fm[id]; !ok {
			d.MsgsAdded++
		}
	}

	s.count(obs.CtrSessDiffs)
	return d, nil
}

// String renders a compact human-readable summary.
func (d *Diff) String() string {
	return fmt.Sprintf("diff v%d..v%d: +%d/-%d apps, %d proc changes, msgs +%d/-%d/~%d, objective %+.4f",
		d.From, d.To, len(d.AppsAdded), len(d.AppsRemoved), len(d.Procs),
		d.MsgsAdded, d.MsgsRemoved, d.MsgsRetimed, d.ObjectiveDelta)
}
