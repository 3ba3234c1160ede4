// Package analysis derives designer-facing reports from a finished
// schedule: end-to-end response times per process graph, laxity against
// deadlines, processor and bus utilization, and per-application summaries.
// cmd/incmap uses it for inspection; tests use it to assert schedule
// quality properties that the raw tables make awkward to express.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// GraphTiming summarizes the schedule of one process graph.
type GraphTiming struct {
	Graph model.GraphID
	Name  string
	// WorstResponse is the maximum, over occurrences, of the time from
	// release to the completion of the graph's last process.
	WorstResponse tm.Time
	// WorstLaxity is the minimum, over occurrences, of deadline minus
	// completion: how close the graph comes to missing its deadline.
	WorstLaxity tm.Time
	// Occurrences is how many times the graph appears in the horizon.
	Occurrences int
}

// AppReport aggregates one application's schedule.
type AppReport struct {
	App    model.AppID
	Name   string
	Graphs []GraphTiming
	// BusBytes is the total bus payload the application occupies over
	// the horizon.
	BusBytes int
}

// Report is the full analysis of a schedule state.
type Report struct {
	Horizon tm.Time
	// NodeUtil is the busy fraction (0..1) of each node over the horizon.
	NodeUtil map[model.NodeID]float64
	// BusUtil is the fraction of bus slot capacity (bytes) in use,
	// aggregated over every bus.
	BusUtil float64
	// PerBusUtil is the used capacity fraction of each bus in bus-ID
	// order (one entry for single-bus architectures, equal to BusUtil).
	PerBusUtil []float64
	Apps       []AppReport
}

// Analyze computes the report for the given applications (typically every
// application scheduled in st).
func Analyze(st *sched.State, apps ...*model.Application) (*Report, error) {
	horizon := st.Horizon()
	rep := &Report{
		Horizon:  horizon,
		NodeUtil: map[model.NodeID]float64{},
	}
	for _, n := range st.System().Arch.NodeIDs() {
		rep.NodeUtil[n] = float64(st.Busy(n).Total()) / float64(horizon)
	}

	var capBytes, freeBytes int
	rep.PerBusUtil = make([]float64, st.NumBuses())
	for bi := 0; bi < st.NumBuses(); bi++ {
		var busCap, busFree int
		b := st.BusStateAt(bi)
		for r := 0; r < b.Rounds(); r++ {
			for sl := 0; sl < b.Bus().NumSlots(); sl++ {
				busCap += b.Bus().SlotBytes[sl]
				busFree += b.Free(r, sl)
			}
		}
		if busCap > 0 {
			rep.PerBusUtil[bi] = float64(busCap-busFree) / float64(busCap)
		}
		capBytes += busCap
		freeBytes += busFree
	}
	if capBytes > 0 {
		rep.BusUtil = float64(capBytes-freeBytes) / float64(capBytes)
	}

	// Completion per (graph, occ).
	type gocc struct {
		g   model.GraphID
		occ int
	}
	completion := map[gocc]tm.Time{}
	for _, e := range st.ProcEntries() {
		k := gocc{e.Graph, e.Occ}
		if e.End > completion[k] {
			completion[k] = e.End
		}
	}
	busBytes := map[model.AppID]int{}
	for _, e := range st.MsgEntries() {
		busBytes[e.App] += e.Bytes
	}

	for _, app := range apps {
		ar := AppReport{App: app.ID, Name: app.Name, BusBytes: busBytes[app.ID]}
		for _, g := range app.Graphs {
			occs := int(horizon / g.Period)
			gt := GraphTiming{Graph: g.ID, Name: g.Name, Occurrences: occs, WorstLaxity: tm.Infinity}
			for occ := 0; occ < occs; occ++ {
				end, ok := completion[gocc{g.ID, occ}]
				if !ok {
					return nil, fmt.Errorf("analysis: graph %d occ %d not scheduled", g.ID, occ)
				}
				release := tm.Time(occ) * g.Period
				resp := end - release
				gt.WorstResponse = tm.Max(gt.WorstResponse, resp)
				gt.WorstLaxity = tm.Min(gt.WorstLaxity, g.Deadline-resp)
			}
			ar.Graphs = append(ar.Graphs, gt)
		}
		rep.Apps = append(rep.Apps, ar)
	}
	return rep, nil
}

// String renders the report as an aligned text block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon %v\n", r.Horizon)

	var nodes []model.NodeID
	for n := range r.NodeUtil {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		fmt.Fprintf(&b, "node N%-3d utilization %5.1f%%\n", n, 100*r.NodeUtil[n])
	}
	fmt.Fprintf(&b, "bus       utilization %5.1f%%\n", 100*r.BusUtil)
	for _, ar := range r.Apps {
		fmt.Fprintf(&b, "application %q (%dB on the bus)\n", ar.Name, ar.BusBytes)
		for _, gt := range ar.Graphs {
			fmt.Fprintf(&b, "  graph %-20s x%-2d worst response %6v, worst laxity %6v\n",
				gt.Name, gt.Occurrences, gt.WorstResponse, gt.WorstLaxity)
		}
	}
	return b.String()
}
