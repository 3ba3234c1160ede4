// Package slack extracts and analyzes the free resources of a design
// alternative: the idle intervals of every processor and the unused
// capacity of every TDMA slot occurrence. The design metrics (package
// metrics) and the mapping heuristic's candidate selection both build on
// these views.
package slack

import (
	"sort"

	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// Processor returns the idle intervals of every node over the schedule
// horizon, in node order.
func Processor(st *sched.State) map[model.NodeID][]tm.Interval {
	out := make(map[model.NodeID][]tm.Interval, len(st.System().Arch.Nodes))
	window := tm.Iv(0, st.Horizon())
	for _, n := range st.System().Arch.Nodes {
		out[n.ID] = st.Busy(n.ID).Gaps(window)
	}
	return out
}

// AllIntervals flattens the per-node slack map into a single slice
// (the containers for the C1P bin packing).
func AllIntervals(perNode map[model.NodeID][]tm.Interval) []tm.Interval {
	var nodes []model.NodeID
	for n := range perNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var out []tm.Interval
	for _, n := range nodes {
		out = append(out, perNode[n]...)
	}
	return out
}

// Lengths converts intervals to their lengths as int64 bin capacities.
func Lengths(ivs []tm.Interval) []int64 {
	out := make([]int64, len(ivs))
	for i, iv := range ivs {
		out[i] = int64(iv.Len())
	}
	return out
}

// WindowSlack splits [0, horizon) into consecutive windows of length tmin
// (only full windows count) and returns the total idle time per window
// given a node's idle intervals, sorted and disjoint as tm.Set.Gaps
// returns them. The paper's second criterion needs the minimum of these:
// slack must be available *periodically*, not just in total.
func WindowSlack(idle []tm.Interval, tmin, horizon tm.Time) []tm.Time {
	return WindowSlackInto(nil, idle, tmin, horizon)
}

// WindowSlackInto is WindowSlack writing into dst (resized as needed):
// the allocation-reusing form for callers that recompute per-window
// slack once per candidate evaluation. The computed values are identical
// to WindowSlack's.
//
// idle must be sorted by start and disjoint, as tm.Set.Gaps returns it.
// The windows and the intervals are then merged in one pass, O(windows +
// len(idle)) with no division: the sweep steps from window to window and
// adds each interval's overlap with every window it reaches, and the
// first interval starting past the last full window ends it. A horizon
// shorter than tmin is one window, clipped to the horizon; time past the
// last full window counts nowhere.
func WindowSlackInto(dst []tm.Time, idle []tm.Interval, tmin, horizon tm.Time) []tm.Time {
	n := int(horizon / tmin)
	if n == 0 {
		// A horizon shorter than Tmin still has one (clipped) window.
		n = 1
		tmin = horizon
	}
	if cap(dst) < n {
		dst = make([]tm.Time, n)
	}
	dst = dst[:n]
	clear(dst)
	end := tm.Time(n) * tmin
	w, wEnd := 0, tmin // the sweep's window and where it ends
	for _, iv := range idle {
		if iv.Start >= end {
			break
		}
		s, e := max(iv.Start, 0), min(iv.End, end)
		for s < e {
			if s >= wEnd {
				w++
				wEnd += tmin
				continue
			}
			next := min(e, wEnd)
			dst[w] += next - s
			s = next
		}
	}
	return dst
}

// BusFreeBytes returns the free capacity of every slot occurrence of
// every bus (the containers for the C1m bin packing): bus 0's
// occurrences in time order (round, then slot), then bus 1's, and so on.
// For a single-bus architecture this is exactly the bus's occurrence list
// in time order.
func BusFreeBytes(st *sched.State) []int64 {
	n := 0
	for bi := 0; bi < st.NumBuses(); bi++ {
		b := st.BusStateAt(bi)
		n += b.Rounds() * b.Bus().NumSlots()
	}
	out := make([]int64, 0, n)
	for bi := 0; bi < st.NumBuses(); bi++ {
		b := st.BusStateAt(bi)
		for r := 0; r < b.Rounds(); r++ {
			for sl := 0; sl < b.Bus().NumSlots(); sl++ {
				out = append(out, int64(b.Free(r, sl)))
			}
		}
	}
	return out
}

// BusWindowFree splits the horizon into tmin windows and returns the free
// bus capacity (bytes) per window, summed over every bus. A slot
// occurrence contributes to the window containing its end time (when its
// frame would be delivered).
func BusWindowFree(st *sched.State, tmin tm.Time) []int64 {
	horizon := st.Horizon()
	n := int(horizon / tmin)
	if n == 0 {
		n = 1
		tmin = horizon
	}
	out := make([]int64, n)
	for bi := 0; bi < st.NumBuses(); bi++ {
		b := st.BusStateAt(bi)
		for r := 0; r < b.Rounds(); r++ {
			for sl := 0; sl < b.Bus().NumSlots(); sl++ {
				w := int((b.SlotEnd(r, sl) - 1) / tmin)
				if w >= n {
					w = n - 1
				}
				out[w] += int64(b.Free(r, sl))
			}
		}
	}
	return out
}

// MinBusWindowFree returns the minimum per-window free bus capacity.
func MinBusWindowFree(st *sched.State, tmin tm.Time) int64 {
	ws := BusWindowFree(st, tmin)
	min := ws[0]
	for _, v := range ws[1:] {
		if v < min {
			min = v
		}
	}
	return min
}
