package model

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// chain3 is a three-cluster chain: bus 0 carries nodes 0-2, bus 1 nodes
// 2-4, bus 2 nodes 4-5. Nodes 2 and 4 are the gateways.
func chain3() *Architecture {
	mkBus := func(id BusID, owners ...NodeID) *Bus {
		b := &Bus{ID: id, ByteTime: 1, SlotOverhead: 2}
		for _, n := range owners {
			b.SlotOrder = append(b.SlotOrder, n)
			b.SlotBytes = append(b.SlotBytes, 16)
		}
		return b
	}
	return &Architecture{
		Nodes: []*Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}, {ID: 5}},
		Buses: []*Bus{
			mkBus(0, 0, 1, 2),
			mkBus(1, 2, 3, 4),
			mkBus(2, 4, 5),
		},
	}
}

func TestGatewayDerivation(t *testing.T) {
	a := chain3()
	if err := a.Validate(); err != nil {
		t.Fatalf("chain architecture invalid: %v", err)
	}
	if got := a.Gateways(); !reflect.DeepEqual(got, []NodeID{2, 4}) {
		t.Errorf("Gateways() = %v, want [2 4]", got)
	}
	if !a.IsGateway(2) || a.IsGateway(1) {
		t.Error("IsGateway misclassifies nodes")
	}
	if got := a.BusesOf(4); !reflect.DeepEqual(got, []BusID{1, 2}) {
		t.Errorf("BusesOf(4) = %v, want [1 2]", got)
	}
}

func TestRouteDirectAndMultiHop(t *testing.T) {
	rt, err := BuildRoutes(chain3())
	if err != nil {
		t.Fatal(err)
	}
	// Same bus: one hop, even for the gateway pair 2-4 (they share bus 1).
	if got := rt.Route(0, 2); !reflect.DeepEqual(got, []Hop{{Bus: 0, From: 0, To: 2}}) {
		t.Errorf("Route(0,2) = %v", got)
	}
	if got := rt.Route(2, 4); !reflect.DeepEqual(got, []Hop{{Bus: 1, From: 2, To: 4}}) {
		t.Errorf("Route(2,4) = %v", got)
	}
	// Two hops across one gateway.
	if got := rt.Route(0, 3); !reflect.DeepEqual(got, []Hop{
		{Bus: 0, From: 0, To: 2}, {Bus: 1, From: 2, To: 3},
	}) {
		t.Errorf("Route(0,3) = %v", got)
	}
	// Three hops end to end, and the reverse direction mirrors it.
	if got := rt.Route(0, 5); !reflect.DeepEqual(got, []Hop{
		{Bus: 0, From: 0, To: 2}, {Bus: 1, From: 2, To: 4}, {Bus: 2, From: 4, To: 5},
	}) {
		t.Errorf("Route(0,5) = %v", got)
	}
	if got := rt.Route(5, 0); !reflect.DeepEqual(got, []Hop{
		{Bus: 2, From: 5, To: 4}, {Bus: 1, From: 4, To: 2}, {Bus: 0, From: 2, To: 0},
	}) {
		t.Errorf("Route(5,0) = %v", got)
	}
	if rt.Route(3, 3) != nil {
		t.Error("Route(n,n) must be nil (same-node communication)")
	}
}

// TestRouteTieBreaks pins the determinism rules: lowest shared bus for
// direct delivery, lowest bus ID per BFS step, lowest gateway ID within
// a bus.
func TestRouteTieBreaks(t *testing.T) {
	mkBus := func(id BusID, owners ...NodeID) *Bus {
		b := &Bus{ID: id, ByteTime: 1}
		for _, n := range owners {
			b.SlotOrder = append(b.SlotOrder, n)
			b.SlotBytes = append(b.SlotBytes, 8)
		}
		return b
	}

	// Nodes 1 and 2 share both buses: direct delivery must pick bus 0.
	both := &Architecture{
		Nodes: []*Node{{ID: 1}, {ID: 2}},
		Buses: []*Bus{mkBus(0, 1, 2), mkBus(1, 1, 2)},
	}
	rt, err := BuildRoutes(both)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Route(1, 2); got[0].Bus != 0 {
		t.Errorf("direct delivery chose bus %d, want lowest shared bus 0", got[0].Bus)
	}

	// Diamond: 0 on bus 0; 9 reachable equally via bus 1 (gateway 1) or
	// bus 2 (gateway 2). The lowest-bus-ID rule must pick bus 1.
	diamond := &Architecture{
		Nodes: []*Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 9}},
		Buses: []*Bus{mkBus(0, 0, 1, 2), mkBus(1, 1, 9), mkBus(2, 2, 9)},
	}
	rt, err = BuildRoutes(diamond)
	if err != nil {
		t.Fatal(err)
	}
	want := []Hop{{Bus: 0, From: 0, To: 1}, {Bus: 1, From: 1, To: 9}}
	if got := rt.Route(0, 9); !reflect.DeepEqual(got, want) {
		t.Errorf("Route(0,9) = %v, want %v (lowest-bus-ID tie-break)", got, want)
	}

	// Two gateways join the same pair of buses: the lowest gateway ID
	// must carry the traffic.
	twoGw := &Architecture{
		Nodes: []*Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 9}},
		Buses: []*Bus{mkBus(0, 0, 1, 2), mkBus(1, 1, 2, 9)},
	}
	rt, err = BuildRoutes(twoGw)
	if err != nil {
		t.Fatal(err)
	}
	want = []Hop{{Bus: 0, From: 0, To: 1}, {Bus: 1, From: 1, To: 9}}
	if got := rt.Route(0, 9); !reflect.DeepEqual(got, want) {
		t.Errorf("Route(0,9) = %v, want %v (lowest-gateway-ID tie-break)", got, want)
	}
}

// TestRouteNonContiguousNodeIDs pins the route table's positions on an
// architecture whose node IDs are neither 0..N-1 nor listed in order:
// {40, 2, 5, 17, 23} over three chained buses. Route must equal a
// reference keyed by the ID pair, built by the same search, for every
// ordered pair, and be nil for a node the architecture lacks. NodePos
// must find every ID.
func TestRouteNonContiguousNodeIDs(t *testing.T) {
	mkBus := func(id BusID, owners ...NodeID) *Bus {
		b := &Bus{ID: id, ByteTime: 1, SlotOverhead: 2}
		for _, n := range owners {
			b.SlotOrder = append(b.SlotOrder, n)
			b.SlotBytes = append(b.SlotBytes, 8)
		}
		return b
	}
	a := &Architecture{
		Nodes: []*Node{{ID: 40}, {ID: 2}, {ID: 5}, {ID: 17}, {ID: 23}},
		Buses: []*Bus{mkBus(0, 40, 2), mkBus(1, 2, 5, 17), mkBus(2, 17, 23)},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	rt, err := BuildRoutes(a)
	if err != nil {
		t.Fatal(err)
	}
	attached := make([][]NodeID, len(a.Buses))
	for bi, b := range a.Buses {
		for _, n := range a.NodeIDs() {
			if b.Owns(n) {
				attached[bi] = append(attached[bi], n)
			}
		}
	}
	ref := map[[2]NodeID][]Hop{}
	for _, src := range a.NodeIDs() {
		for _, dst := range a.NodeIDs() {
			if src != dst {
				hops, err := rt.build(src, dst, attached)
				if err != nil {
					t.Fatal(err)
				}
				ref[[2]NodeID{src, dst}] = hops
			}
		}
	}
	multi := 0
	for _, src := range a.NodeIDs() {
		for _, dst := range a.NodeIDs() {
			got, want := rt.Route(src, dst), ref[[2]NodeID{src, dst}]
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Route(%d,%d) = %v, want %v", src, dst, got, want)
			}
			if len(want) > 1 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Error("no multi-hop route: the table's positions are not exercised across buses")
	}
	if got := rt.Route(40, 23); len(got) != 3 || got[0].From != 40 || got[2].To != 23 {
		t.Errorf("Route(40,23) = %v, want three hops from 40 to 23", got)
	}
	for _, pair := range [][2]NodeID{{0, 2}, {2, 0}, {3, 5}, {41, 40}} {
		if got := rt.Route(pair[0], pair[1]); got != nil {
			t.Errorf("Route(%d,%d) = %v for a node the architecture lacks, want nil", pair[0], pair[1], got)
		}
	}
	ids := a.NodeIDs()
	for i, n := range ids {
		if got := NodePos(ids, n); got != i {
			t.Errorf("NodePos(%v, %d) = %d, want %d", ids, n, got, i)
		}
	}
	for _, n := range []NodeID{-1, 0, 1, 3, 4, 41} {
		if got := NodePos(ids, n); got != -1 {
			t.Errorf("NodePos(%v, %d) = %d, want -1", ids, n, got)
		}
	}
}

func TestDisconnectedBusGraphRejected(t *testing.T) {
	a := &Architecture{
		Nodes: []*Node{{ID: 0}, {ID: 1}},
		Buses: []*Bus{
			{ID: 0, SlotOrder: []NodeID{0}, SlotBytes: []int{8}, ByteTime: 1},
			{ID: 1, SlotOrder: []NodeID{1}, SlotBytes: []int{8}, ByteTime: 1},
		},
	}
	err := a.Validate()
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Errorf("disconnected bus graph accepted (err = %v)", err)
	}
}

func TestBusIDsMustBeDense(t *testing.T) {
	a := chain3()
	a.Buses[1].ID = 7
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "dense") {
		t.Errorf("sparse bus ids accepted (err = %v)", err)
	}
}

// TestArchitectureJSONCompat pins the wire compatibility rules: one-bus
// architectures keep the legacy singular "bus" key byte-for-byte, multi-
// bus architectures use "buses", both parse, and a document carrying both
// keys is rejected.
func TestArchitectureJSONCompat(t *testing.T) {
	single := &Architecture{
		Nodes: []*Node{{ID: 0}},
		Buses: []*Bus{{SlotOrder: []NodeID{0}, SlotBytes: []int{8}, ByteTime: 1}},
	}
	data, err := json.Marshal(single)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"bus":`)) || bytes.Contains(data, []byte(`"buses":`)) {
		t.Errorf("single-bus architecture serialized as %s, want legacy \"bus\" key", data)
	}
	var rt Architecture
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatalf("legacy round-trip: %v", err)
	}
	if len(rt.Buses) != 1 || rt.Buses[0].RoundLen() != single.Buses[0].RoundLen() {
		t.Errorf("legacy round-trip lost the bus: %+v", rt.Buses)
	}

	multi := chain3()
	data, err = json.Marshal(multi)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"buses":`)) || bytes.Contains(data, []byte(`"bus":`)) {
		t.Errorf("multi-bus architecture serialized as %s, want \"buses\" key", data)
	}
	var rt2 Architecture
	if err := json.Unmarshal(data, &rt2); err != nil {
		t.Fatalf("multi-bus round-trip: %v", err)
	}
	if err := rt2.Validate(); err != nil {
		t.Errorf("multi-bus round-trip invalid: %v", err)
	}
	if len(rt2.Buses) != 3 || !rt2.IsGateway(2) {
		t.Errorf("multi-bus round-trip lost topology: %d buses", len(rt2.Buses))
	}

	if err := json.Unmarshal([]byte(`{"nodes":[{"id":0}],"bus":{"slot_order":[0],"slot_bytes":[8],"byte_time":1,"slot_overhead":0},"buses":[{"slot_order":[0],"slot_bytes":[8],"byte_time":1,"slot_overhead":0}]}`), &rt); err == nil {
		t.Error("document with both \"bus\" and \"buses\" accepted")
	}
}
