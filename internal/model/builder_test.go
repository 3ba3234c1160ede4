package model

import (
	"reflect"
	"testing"

	"incdes/internal/tm"
)

func TestBuilderAssignsUniqueIDs(t *testing.T) {
	b := NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	if n0 == n1 {
		t.Fatal("duplicate node IDs")
	}
	b.UniformBus(8, 1, 2)
	a1 := b.App("a1")
	a2 := b.App("a2")
	g1 := a1.Graph("g1", 100, 100)
	g2 := a2.Graph("g2", 100, 100)
	p1 := g1.UniformProc("p", 10)
	p2 := g2.UniformProc("p", 10)
	if p1 == p2 {
		t.Fatal("duplicate process IDs across applications")
	}
	if g1.Graph().ID == g2.Graph().ID {
		t.Fatal("duplicate graph IDs")
	}
	if a1.Application().ID == a2.Application().ID {
		t.Fatal("duplicate application IDs")
	}
}

func TestUniformBusCoversAllNodes(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 3; i++ {
		b.Node("N")
	}
	b.UniformBus(16, 2, 4)
	app := b.App("a")
	app.Graph("g", 1000, 1000).UniformProc("p", 10)
	sys, err := b.System()
	if err != nil {
		t.Fatalf("System: %v", err)
	}
	if sys.Arch.Buses[0].NumSlots() != 3 {
		t.Errorf("%d slots, want 3", sys.Arch.Buses[0].NumSlots())
	}
	for i := 0; i < 3; i++ {
		if sys.Arch.Buses[0].SlotBytes[i] != 16 {
			t.Errorf("slot %d capacity %d, want 16", i, sys.Arch.Buses[0].SlotBytes[i])
		}
	}
	// UniformProc must cover every node.
	p := sys.Apps[0].Graphs[0].Procs[0]
	if len(p.WCET) != 3 {
		t.Errorf("uniform process allowed on %d nodes, want 3", len(p.WCET))
	}
}

// TestClusterChain pins the chain-of-clusters topology the generators
// share: consecutive node IDs per cluster, and bus c carrying cluster c's
// nodes and then the last gateways nodes of cluster c-1.
func TestClusterChain(t *testing.T) {
	type bus struct {
		id    BusID
		name  string
		order []NodeID
	}
	cases := []struct {
		name     string
		sizes    []int
		gateways int
		want     []bus
	}{
		{"one cluster", []int{3}, 1, []bus{{0, "", []NodeID{0, 1, 2}}}},
		{"three clusters, one gateway", []int{2, 3, 2}, 1, []bus{
			{0, "bus0", []NodeID{0, 1}},
			{1, "bus1", []NodeID{2, 3, 4, 1}},
			{2, "bus2", []NodeID{5, 6, 4}},
		}},
		{"three clusters, two gateways", []int{2, 3, 2}, 2, []bus{
			{0, "bus0", []NodeID{0, 1}},
			{1, "bus1", []NodeID{2, 3, 4, 0, 1}},
			{2, "bus2", []NodeID{5, 6, 3, 4}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arch := ClusterChain(tc.sizes, tc.gateways, 8, 2, 3)
			if err := arch.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			total := 0
			for _, n := range tc.sizes {
				total += n
			}
			for i, n := range arch.Nodes {
				if n.ID != NodeID(i) || n.Name != "" {
					t.Errorf("node %d = %+v, want ID %d and no name", i, *n, i)
				}
			}
			if len(arch.Nodes) != total {
				t.Errorf("%d nodes, want %d", len(arch.Nodes), total)
			}
			if len(arch.Buses) != len(tc.want) {
				t.Fatalf("%d buses, want %d", len(arch.Buses), len(tc.want))
			}
			for c, w := range tc.want {
				b := arch.Buses[c]
				if b.ID != w.id || b.Name != w.name || !reflect.DeepEqual(b.SlotOrder, w.order) {
					t.Errorf("bus %d = {ID %d, Name %q, SlotOrder %v}, want {ID %d, Name %q, SlotOrder %v}",
						c, b.ID, b.Name, b.SlotOrder, w.id, w.name, w.order)
				}
				if b.ByteTime != 2 || b.SlotOverhead != 3 || len(b.SlotBytes) != len(w.order) {
					t.Errorf("bus %d timing = %v/%v with %d slot sizes, want 2/3 with %d", c, b.ByteTime, b.SlotOverhead, len(b.SlotBytes), len(w.order))
				}
				for i, sb := range b.SlotBytes {
					if sb != 8 {
						t.Errorf("bus %d slot %d carries %d bytes, want 8", c, i, sb)
					}
				}
			}
		})
	}
}

func TestBuilderSystemRejectsInvalid(t *testing.T) {
	b := NewBuilder()
	b.Node("N0")
	b.UniformBus(8, 1, 2)
	// Application without graphs fails validation.
	b.App("empty")
	if _, err := b.System(); err == nil {
		t.Error("empty application accepted")
	}
}

func TestMustSystemPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSystem did not panic on invalid input")
		}
	}()
	b := NewBuilder()
	b.Node("N0")
	b.UniformBus(8, 1, 2)
	b.App("empty")
	b.MustSystem()
}

func TestAdjacencyCacheInvalidation(t *testing.T) {
	b := NewBuilder()
	n0 := b.Node("N0")
	b.UniformBus(8, 1, 2)
	gb := b.App("a").Graph("g", 100, 100)
	p1 := gb.Proc("p1", map[NodeID]tm.Time{n0: 10})
	p2 := gb.Proc("p2", map[NodeID]tm.Time{n0: 10})
	g := gb.Graph()
	if got := len(g.OutMsgs(p1)); got != 0 {
		t.Fatalf("premature out-degree %d", got)
	}
	// Adding a message through the builder must invalidate the cache.
	gb.Msg(p1, p2, 4)
	if got := len(g.OutMsgs(p1)); got != 1 {
		t.Errorf("out-degree after Msg = %d, want 1 (stale adjacency cache)", got)
	}
}
