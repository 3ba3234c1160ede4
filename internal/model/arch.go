package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"incdes/internal/tm"
)

// Node is a processing element: CPU, memory and a communication controller
// attached to one or more TDMA buses. Heterogeneity is expressed through
// per-process WCET tables, not through a node attribute, exactly as in the
// paper's model (a process has a WCET for each node it may run on).
//
// Bus attachment is derived, not declared: a node is attached to every bus
// on which it owns at least one TDMA slot (the TTP discipline — every
// cluster member transmits in its own slot, so membership and slot
// ownership coincide). A node attached to two or more buses is a gateway
// and forwards inter-cluster messages hop by hop.
type Node struct {
	ID   NodeID `json:"id"`
	Name string `json:"name,omitempty"`
}

// BusID identifies a TDMA bus of the architecture. Bus IDs are dense:
// Architecture.Buses[i].ID == BusID(i), which Validate enforces, so a
// BusID doubles as an index everywhere.
type BusID int

// Bus models one TTP time-division multiple-access bus. Time is divided
// into slots; slot i belongs to node SlotOrder[i] and can carry a frame of
// up to SlotBytes[i] bytes. A TDMA round is the sequence of all slots; the
// round repeats forever. A node may only transmit during its own slots.
//
// Transmitting one byte takes ByteTime; each slot additionally reserves
// SlotOverhead time units (frame header, CRC, inter-frame gap). The slot
// duration is therefore fixed regardless of how many bytes the frame
// actually uses — this is the TTP discipline: the MEDL is static.
//
// ID is the bus's position in Architecture.Buses. Single-bus systems may
// omit it (it defaults to 0, the only legal value there).
type Bus struct {
	ID           BusID    `json:"id,omitempty"`
	Name         string   `json:"name,omitempty"`
	SlotOrder    []NodeID `json:"slot_order"`
	SlotBytes    []int    `json:"slot_bytes"`
	ByteTime     tm.Time  `json:"byte_time"`
	SlotOverhead tm.Time  `json:"slot_overhead"`
}

// NumSlots returns the number of slots per TDMA round.
func (b *Bus) NumSlots() int { return len(b.SlotOrder) }

// SlotDur returns the fixed duration of slot i.
func (b *Bus) SlotDur(i int) tm.Time {
	return b.SlotOverhead + tm.Time(b.SlotBytes[i])*b.ByteTime
}

// RoundLen returns the duration of a full TDMA round.
func (b *Bus) RoundLen() tm.Time {
	var l tm.Time
	for i := range b.SlotOrder {
		l += b.SlotDur(i)
	}
	return l
}

// SlotStart returns the absolute start time of slot occurrence
// (round, slot).
func (b *Bus) SlotStart(round, slot int) tm.Time {
	t := tm.Time(round) * b.RoundLen()
	for i := 0; i < slot; i++ {
		t += b.SlotDur(i)
	}
	return t
}

// SlotEnd returns the absolute end time of slot occurrence (round, slot).
// A message carried in this occurrence is available at all receivers at
// SlotEnd (the TTP controller delivers the frame at the end of the slot).
func (b *Bus) SlotEnd(round, slot int) tm.Time {
	return b.SlotStart(round, slot) + b.SlotDur(slot)
}

// SlotsOf returns the indices of the slots owned by node n, ascending.
// In a standard TTP round each node owns exactly one slot, but the model
// permits several.
func (b *Bus) SlotsOf(n NodeID) []int {
	var out []int
	for i, owner := range b.SlotOrder {
		if owner == n {
			out = append(out, i)
		}
	}
	return out
}

// Owns reports whether node n owns at least one slot of the bus.
func (b *Bus) Owns(n NodeID) bool {
	for _, owner := range b.SlotOrder {
		if owner == n {
			return true
		}
	}
	return false
}

// Architecture is the hardware platform: the nodes and the TDMA buses
// that connect them. Single-cluster systems have exactly one bus;
// multi-cluster systems have several, joined by gateway nodes that own
// slots on two or more buses. The bus graph (buses as vertices, gateways
// as edges) must be connected so every pair of nodes can communicate.
type Architecture struct {
	Nodes []*Node `json:"nodes"`
	Buses []*Bus  `json:"buses"`
}

// ClusterChain builds a chain of TDMA clusters over consecutive node IDs:
// cluster c holds the sizes[c] nodes after those of cluster c-1. Bus c has
// one slot per node of cluster c, then, for c > 0, one slot per gateway:
// the last gateways nodes of cluster c-1, which join bus c-1 to bus c.
// Every slot carries slotBytes. A single cluster is one bus with no ID or
// name; the buses of a longer chain are named "bus<c>". Nodes are left
// unnamed, and gateways must not exceed any cluster's size.
func ClusterChain(sizes []int, gateways, slotBytes int, byteTime, slotOverhead tm.Time) *Architecture {
	arch := &Architecture{}
	first := NodeID(0) // ID of cluster c's first node
	for c, size := range sizes {
		bus := &Bus{ByteTime: byteTime, SlotOverhead: slotOverhead}
		if len(sizes) > 1 {
			bus.ID, bus.Name = BusID(c), fmt.Sprintf("bus%d", c)
		}
		for id := first; id < first+NodeID(size); id++ {
			arch.Nodes = append(arch.Nodes, &Node{ID: id})
			bus.SlotOrder = append(bus.SlotOrder, id)
		}
		if c > 0 {
			for id := first - NodeID(gateways); id < first; id++ {
				bus.SlotOrder = append(bus.SlotOrder, id)
			}
		}
		for range bus.SlotOrder {
			bus.SlotBytes = append(bus.SlotBytes, slotBytes)
		}
		arch.Buses = append(arch.Buses, bus)
		first += NodeID(size)
	}
	return arch
}

// archJSON is the wire shape of Architecture. The legacy singular "bus"
// key is accepted on input and emitted for single-bus architectures, so
// every pre-multi-cluster system file round-trips byte-identically.
type archJSON struct {
	Nodes []*Node `json:"nodes"`
	Bus   *Bus    `json:"bus,omitempty"`
	Buses []*Bus  `json:"buses,omitempty"`
}

// MarshalJSON emits the legacy {"nodes", "bus"} shape for single-bus
// architectures and {"nodes", "buses"} otherwise.
func (a *Architecture) MarshalJSON() ([]byte, error) {
	if len(a.Buses) == 1 && a.Buses[0].ID == 0 {
		return json.Marshal(archJSON{Nodes: a.Nodes, Bus: a.Buses[0]})
	}
	return json.Marshal(archJSON{Nodes: a.Nodes, Buses: a.Buses})
}

// UnmarshalJSON accepts both the legacy singular "bus" key and the
// general "buses" list (exactly one of the two). Unknown keys are always
// rejected: the architecture is the root of every downstream invariant.
func (a *Architecture) UnmarshalJSON(data []byte) error {
	var aux archJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&aux); err != nil {
		return err
	}
	if aux.Bus != nil && len(aux.Buses) > 0 {
		return fmt.Errorf("model: architecture has both \"bus\" and \"buses\"")
	}
	a.Nodes = aux.Nodes
	if aux.Bus != nil {
		a.Buses = []*Bus{aux.Bus}
	} else {
		a.Buses = aux.Buses
	}
	return nil
}

// Node returns the node with the given ID, or nil.
func (a *Architecture) Node(id NodeID) *Node {
	for _, n := range a.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// NodeIDs returns all node IDs in ascending order.
func (a *Architecture) NodeIDs() []NodeID {
	ids := make([]NodeID, len(a.Nodes))
	for i, n := range a.Nodes {
		ids[i] = n.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NodePos returns the position of node n in ids, the ascending node IDs
// of an architecture (NodeIDs), or -1 when n is not among them. Node IDs
// are usually 0..N-1, where a node's position is its ID; that case costs
// one comparison, any other a binary search.
func NodePos(ids []NodeID, n NodeID) int {
	if i := int(n); i >= 0 && i < len(ids) && ids[i] == n {
		return i
	}
	if i, ok := slices.BinarySearch(ids, n); ok {
		return i
	}
	return -1
}

// BusesOf returns the IDs of the buses node n is attached to (owns a slot
// on), ascending. An empty result means the node cannot communicate and
// is rejected by Validate.
func (a *Architecture) BusesOf(n NodeID) []BusID {
	var out []BusID
	for i, b := range a.Buses {
		if b.Owns(n) {
			out = append(out, BusID(i))
		}
	}
	return out
}

// IsGateway reports whether node n is attached to two or more buses.
func (a *Architecture) IsGateway(n NodeID) bool {
	count := 0
	for _, b := range a.Buses {
		if b.Owns(n) {
			count++
			if count >= 2 {
				return true
			}
		}
	}
	return false
}

// Gateways returns the gateway nodes (attached to >= 2 buses), ascending.
func (a *Architecture) Gateways() []NodeID {
	var out []NodeID
	for _, n := range a.NodeIDs() {
		if a.IsGateway(n) {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks the architecture for internal consistency: unique node
// IDs, dense bus IDs, well-formed slot tables, every node attached to at
// least one bus, and a connected bus graph (every pair of nodes must be
// reachable through gateway hops for messages to be routable).
func (a *Architecture) Validate() error {
	if len(a.Nodes) == 0 {
		return fmt.Errorf("model: architecture has no nodes")
	}
	seen := map[NodeID]bool{}
	for _, n := range a.Nodes {
		if seen[n.ID] {
			return fmt.Errorf("model: duplicate node id %d", n.ID)
		}
		seen[n.ID] = true
	}
	if len(a.Buses) == 0 {
		return fmt.Errorf("model: architecture has no bus")
	}
	for i, b := range a.Buses {
		if b == nil {
			return fmt.Errorf("model: bus %d is null", i)
		}
		if b.ID != BusID(i) {
			return fmt.Errorf("model: bus at position %d has id %d; bus ids must be dense (id == position)", i, b.ID)
		}
		if len(b.SlotOrder) == 0 {
			return fmt.Errorf("model: bus %d has no slots", i)
		}
		if len(b.SlotBytes) != len(b.SlotOrder) {
			return fmt.Errorf("model: bus %d has %d slot owners but %d slot capacities",
				i, len(b.SlotOrder), len(b.SlotBytes))
		}
		if b.ByteTime <= 0 {
			return fmt.Errorf("model: bus %d byte time must be positive, got %v", i, b.ByteTime)
		}
		if b.SlotOverhead < 0 {
			return fmt.Errorf("model: bus %d slot overhead must be non-negative, got %v", i, b.SlotOverhead)
		}
		for si, owner := range b.SlotOrder {
			if !seen[owner] {
				return fmt.Errorf("model: bus %d slot %d owned by unknown node %d", i, si, owner)
			}
			if b.SlotBytes[si] <= 0 {
				return fmt.Errorf("model: bus %d slot %d has non-positive capacity %d", i, si, b.SlotBytes[si])
			}
		}
	}
	for _, n := range a.Nodes {
		if len(a.BusesOf(n.ID)) == 0 {
			return fmt.Errorf("model: node %d owns no TDMA slot and cannot send messages", n.ID)
		}
	}
	if _, err := BuildRoutes(a); err != nil {
		return err
	}
	return nil
}
