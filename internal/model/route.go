package model

import "fmt"

// Hop is one leg of a message route: a transmission on bus Bus from node
// From (which must own a slot on that bus) delivered to node To. For a
// single-bus architecture every route is exactly one hop.
type Hop struct {
	Bus  BusID
	From NodeID
	To   NodeID
}

// RouteTable holds the precomputed all-pairs routes of an architecture.
// Routing is deterministic: for a given architecture the route between
// any (src, dst) pair is a pure function of the topology, independent of
// map iteration order, search order, or anything else run-dependent.
// This is load-bearing — schedules (and therefore fingerprints, golden
// traces and cache keys) embed the chosen route.
//
// The rule: a route follows a shortest path in the bus graph (fewest
// hops). Ties are broken by preferring the lowest bus ID at each step,
// and within a bus the lowest-ID gateway node. Direct delivery (src and
// dst share a bus) is always a single hop on the lowest shared bus.
type RouteTable struct {
	arch   *Architecture
	routes map[[2]NodeID][]Hop
}

// BuildRoutes precomputes deterministic shortest-hop routes between all
// node pairs. It fails if some pair is unreachable (the bus graph is
// disconnected), which Architecture.Validate surfaces as a model error.
func BuildRoutes(a *Architecture) (*RouteTable, error) {
	rt := &RouteTable{arch: a, routes: map[[2]NodeID][]Hop{}}

	// busNext[b] = sorted node IDs attached to bus b; gateway candidates
	// are the attached nodes that are also attached to other buses.
	attached := make([][]NodeID, len(a.Buses))
	for bi, b := range a.Buses {
		for _, n := range a.NodeIDs() {
			if b.Owns(n) {
				attached[bi] = append(attached[bi], n)
			}
		}
	}

	ids := a.NodeIDs()
	for _, src := range ids {
		for _, dst := range ids {
			if src == dst {
				continue
			}
			hops, err := rt.build(src, dst, attached)
			if err != nil {
				return nil, err
			}
			rt.routes[[2]NodeID{src, dst}] = hops
		}
	}
	return rt, nil
}

// build computes the route from src to dst via a BFS over buses. The BFS
// explores buses in ascending ID order from a sorted frontier, so the
// first path found is the deterministic shortest one under the tie-break
// rule documented on RouteTable.
func (rt *RouteTable) build(src, dst NodeID, attached [][]NodeID) ([]Hop, error) {
	a := rt.arch

	// Direct delivery: lowest shared bus.
	for bi, b := range a.Buses {
		if b.Owns(src) && b.Owns(dst) {
			return []Hop{{Bus: BusID(bi), From: src, To: dst}}, nil
		}
	}

	// BFS over the bus graph. parent[b] records how bus b was reached:
	// from bus prev via gateway gw. Seed with src's buses in ascending
	// order; expand in FIFO order (frontier is always ID-sorted because
	// seeds are sorted and each level appends in ascending bus order).
	type via struct {
		prev BusID
		gw   NodeID
	}
	const none = BusID(-1)
	parent := make([]via, len(a.Buses))
	visited := make([]bool, len(a.Buses))
	var queue []BusID
	for _, bi := range a.BusesOf(src) {
		visited[bi] = true
		parent[bi] = via{prev: none}
		queue = append(queue, bi)
	}
	goal := none
	for len(queue) > 0 && goal == none {
		cur := queue[0]
		queue = queue[1:]
		if a.Buses[cur].Owns(dst) {
			goal = cur
			break
		}
		// Neighbors: every bus sharing a gateway with cur, lowest bus
		// first; record the lowest-ID gateway for each.
		for nb := range a.Buses {
			nbi := BusID(nb)
			if visited[nbi] || nbi == cur {
				continue
			}
			gw := NodeID(-1)
			for _, n := range attached[cur] {
				if a.Buses[nbi].Owns(n) {
					gw = n
					break // attached is ascending, first match is lowest
				}
			}
			if gw < 0 {
				continue
			}
			visited[nbi] = true
			parent[nbi] = via{prev: cur, gw: gw}
			queue = append(queue, nbi)
		}
	}
	if goal == none {
		return nil, fmt.Errorf("model: no route from node %d to node %d (bus graph disconnected)", src, dst)
	}

	// Walk parents back from the goal bus, then reverse into hops.
	var chain []via // chain[i] = entry for bus path[i]
	var path []BusID
	for b := goal; ; b = parent[b].prev {
		path = append(path, b)
		chain = append(chain, parent[b])
		if parent[b].prev == none {
			break
		}
	}
	// path is goal..firstBus; reverse it.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
		chain[i], chain[j] = chain[j], chain[i]
	}
	hops := make([]Hop, 0, len(path))
	from := src
	for i, b := range path {
		var to NodeID
		if i == len(path)-1 {
			to = dst
		} else {
			// The gateway that carried us onto path[i+1].
			to = chain[i+1].gw
		}
		hops = append(hops, Hop{Bus: b, From: from, To: to})
		from = to
	}
	return hops, nil
}

// Route returns the hop sequence from src to dst. src == dst returns
// nil (same-node communication is shared memory, no bus traffic). The
// returned slice is owned by the table; callers must not mutate it.
func (rt *RouteTable) Route(src, dst NodeID) []Hop {
	if src == dst {
		return nil
	}
	return rt.routes[[2]NodeID{src, dst}]
}
