package model

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"incdes/internal/tm"
)

// twoNodeSystem builds the slide-5 style platform: two nodes, slot order
// (N1, N0), and one application with a diamond graph P1 -> {P2, P3} -> P4.
func twoNodeSystem(t *testing.T) (*System, []ProcID) {
	t.Helper()
	b := NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]NodeID{n1, n0}, []int{8, 8}, 2, 2)
	app := b.App("app")
	g := app.Graph("G", 200, 200)
	p1 := g.Proc("P1", map[NodeID]tm.Time{n0: 20, n1: 30})
	p2 := g.Proc("P2", map[NodeID]tm.Time{n0: 30, n1: 20})
	p3 := g.Proc("P3", map[NodeID]tm.Time{n1: 25})
	p4 := g.Proc("P4", map[NodeID]tm.Time{n0: 20, n1: 20})
	g.Msg(p1, p2, 4)
	g.Msg(p1, p3, 4)
	g.Msg(p2, p4, 4)
	g.Msg(p3, p4, 4)
	sys, err := b.System()
	if err != nil {
		t.Fatalf("building two-node system: %v", err)
	}
	return sys, []ProcID{p1, p2, p3, p4}
}

func TestProcessAccessors(t *testing.T) {
	p := &Process{ID: 1, WCET: map[NodeID]tm.Time{2: 30, 0: 10, 1: 20}}
	if got := p.AllowedNodes(); !reflect.DeepEqual(got, []NodeID{0, 1, 2}) {
		t.Errorf("AllowedNodes = %v", got)
	}
	if got := p.AvgWCET(); got != 20 {
		t.Errorf("AvgWCET = %v, want 20", got)
	}
	if got := p.MaxWCET(); got != 30 {
		t.Errorf("MaxWCET = %v, want 30", got)
	}
	empty := &Process{}
	if empty.AvgWCET() != 0 || empty.MaxWCET() != 0 {
		t.Error("zero-table process should report zero WCETs")
	}
}

func TestTopoOrder(t *testing.T) {
	sys, ps := twoNodeSystem(t)
	g := sys.Apps[0].Graphs[0]
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := map[ProcID]int{}
	for i, p := range order {
		pos[p.ID] = i
	}
	for _, m := range g.Msgs {
		if pos[m.Src] >= pos[m.Dst] {
			t.Errorf("message %d: src %d not before dst %d", m.ID, m.Src, m.Dst)
		}
	}
	if order[0].ID != ps[0] || order[3].ID != ps[3] {
		t.Errorf("diamond order wrong: %v", order)
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := &Graph{
		Name: "cyc", Period: 100, Deadline: 100,
		Procs: []*Process{
			{ID: 0, WCET: map[NodeID]tm.Time{0: 10}},
			{ID: 1, WCET: map[NodeID]tm.Time{0: 10}},
		},
		Msgs: []*Message{
			{ID: 0, Src: 0, Dst: 1, Bytes: 1},
			{ID: 1, Src: 1, Dst: 0, Bytes: 1},
		},
	}
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestGraphAdjacency(t *testing.T) {
	sys, ps := twoNodeSystem(t)
	g := sys.Apps[0].Graphs[0]
	if got := len(g.OutMsgs(ps[0])); got != 2 {
		t.Errorf("P1 out-degree = %d, want 2", got)
	}
	if got := len(g.InMsgs(ps[3])); got != 2 {
		t.Errorf("P4 in-degree = %d, want 2", got)
	}
	if got := len(g.InMsgs(ps[0])); got != 0 {
		t.Errorf("P1 in-degree = %d, want 0", got)
	}
}

func TestBusTiming(t *testing.T) {
	bus := &Bus{
		SlotOrder:    []NodeID{1, 0},
		SlotBytes:    []int{8, 4},
		ByteTime:     2,
		SlotOverhead: 3,
	}
	if got := bus.SlotDur(0); got != 19 { // 3 + 8*2
		t.Errorf("SlotDur(0) = %v, want 19", got)
	}
	if got := bus.SlotDur(1); got != 11 { // 3 + 4*2
		t.Errorf("SlotDur(1) = %v, want 11", got)
	}
	if got := bus.RoundLen(); got != 30 {
		t.Errorf("RoundLen = %v, want 30", got)
	}
	if got := bus.SlotStart(0, 0); got != 0 {
		t.Errorf("SlotStart(0,0) = %v", got)
	}
	if got := bus.SlotStart(0, 1); got != 19 {
		t.Errorf("SlotStart(0,1) = %v, want 19", got)
	}
	if got := bus.SlotStart(2, 1); got != 79 { // 2*30 + 19
		t.Errorf("SlotStart(2,1) = %v, want 79", got)
	}
	if got := bus.SlotEnd(0, 1); got != 30 {
		t.Errorf("SlotEnd(0,1) = %v, want 30", got)
	}
	if got := bus.SlotsOf(0); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("SlotsOf(0) = %v, want [1]", got)
	}
}

func TestHyperperiod(t *testing.T) {
	b := NewBuilder()
	n0 := b.Node("N0")
	b.Bus([]NodeID{n0}, []int{10}, 1, 0) // round length 10
	app := b.App("a")
	g1 := app.Graph("G1", 40, 40)
	g1.UniformProc("P", 10)
	g2 := app.Graph("G2", 60, 50)
	g2.UniformProc("Q", 10)
	sys := b.MustSystem()
	if got := sys.Hyperperiod(); got != 120 {
		t.Errorf("Hyperperiod = %v, want 120 (lcm of 40, 60, round 10)", got)
	}
}

func TestValidateRejectsBadInputs(t *testing.T) {
	mk := func(mutate func(*System)) error {
		sys, _ := twoNodeSystem(t)
		mutate(sys)
		return sys.Validate()
	}
	cases := []struct {
		name   string
		mutate func(*System)
	}{
		{"zero period", func(s *System) { s.Apps[0].Graphs[0].Period = 0 }},
		{"deadline beyond period", func(s *System) { s.Apps[0].Graphs[0].Deadline = 500 }},
		{"wcet beyond deadline", func(s *System) {
			s.Apps[0].Graphs[0].Procs[0].WCET[0] = 300
		}},
		{"no allowed node", func(s *System) {
			s.Apps[0].Graphs[0].Procs[0].WCET = nil
		}},
		{"oversized message", func(s *System) {
			s.Apps[0].Graphs[0].Msgs[0].Bytes = 100
		}},
		{"self message", func(s *System) {
			m := s.Apps[0].Graphs[0].Msgs[0]
			m.Dst = m.Src
		}},
		{"duplicate proc id", func(s *System) {
			g := s.Apps[0].Graphs[0]
			g.Procs[1].ID = g.Procs[0].ID
			g.succs = nil
		}},
		{"unknown wcet node", func(s *System) {
			s.Apps[0].Graphs[0].Procs[0].WCET[99] = 10
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := mk(tc.mutate); err == nil {
				t.Errorf("%s: Validate accepted invalid system", tc.name)
			}
		})
	}
}

// TestValidateBoundsOccurrences: a hyperperiod that fits tm.Time can
// still span more slot or process and message occurrences than a
// schedule should allocate, and Validate rejects such a system before
// anything is scheduled. Each system has two nodes on a 20-unit round and
// one application per period, a chain of procs processes.
func TestValidateBoundsOccurrences(t *testing.T) {
	system := func(procs int, periods ...tm.Time) *System {
		b := NewBuilder()
		b.Node("N0")
		b.Node("N1")
		b.UniformBus(8, 1, 2)
		for i, period := range periods {
			g := b.App(fmt.Sprintf("a%d", i)).Graph(fmt.Sprintf("g%d", i), period, period)
			var prev ProcID
			for k := 0; k < procs; k++ {
				p := g.UniformProc(fmt.Sprintf("a%d-p%d", i, k), 3)
				if k > 0 {
					g.Msg(prev, p, 4)
				}
				prev = p
			}
		}
		return &System{Arch: &b.arch, Apps: b.apps}
	}
	// A hyperperiod of maxSlotOccurrences/2 rounds of two slots each.
	long := tm.Time(20 * maxSlotOccurrences / 2)
	for _, tc := range []struct {
		name string
		sys  *System
		want string // a fragment of the error; "" means valid
	}{
		{"prime periods", system(1, 999983, 1000003), "slot occurrences"},
		{"at the slot bound", system(1, 20, long), ""},
		{"over the job bound", system(2, 20, long), "process and message occurrences"},
	} {
		err := tc.sys.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one about %s", tc.name, err, tc.want)
		}
	}
}

func TestValidateArchitecture(t *testing.T) {
	arch := &Architecture{
		Nodes: []*Node{{ID: 0}, {ID: 1}},
		Buses: []*Bus{{
			SlotOrder: []NodeID{0, 1},
			SlotBytes: []int{8, 8},
			ByteTime:  1,
		}},
	}
	if err := arch.Validate(); err != nil {
		t.Errorf("valid architecture rejected: %v", err)
	}
	// A node without a slot cannot send messages.
	arch.Buses[0].SlotOrder = []NodeID{0, 0}
	if err := arch.Validate(); err == nil {
		t.Error("node without a slot accepted")
	}
}

func TestIndexCoversAllObjects(t *testing.T) {
	sys, ps := twoNodeSystem(t)
	ix := NewIndex(sys.Apps...)
	if len(ix.Proc) != 4 || len(ix.Msg) != 4 {
		t.Fatalf("index sizes: %d procs, %d msgs", len(ix.Proc), len(ix.Msg))
	}
	for _, id := range ps {
		if ix.Proc[id] == nil {
			t.Errorf("process %d missing from index", id)
		}
		if ix.GraphOf[id] == nil {
			t.Errorf("GraphOf(%d) missing", id)
		}
	}
}

func TestMappingClone(t *testing.T) {
	m := Mapping{1: 0, 2: 1}
	c := m.Clone()
	c[1] = 1
	if m[1] != 0 {
		t.Error("Clone aliases original")
	}
}

func TestApplicationCounts(t *testing.T) {
	sys, _ := twoNodeSystem(t)
	app := sys.Apps[0]
	if app.NumProcs() != 4 || app.NumMsgs() != 4 {
		t.Errorf("counts = %d procs, %d msgs", app.NumProcs(), app.NumMsgs())
	}
	if got := app.Periods(); !reflect.DeepEqual(got, []tm.Time{200}) {
		t.Errorf("Periods = %v", got)
	}
}
