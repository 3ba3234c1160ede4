package export

import (
	"fmt"
	"strings"
	"testing"

	"incdes/internal/gen"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// TestCheckAcceptsValidSchedule requires the design of the hand-built
// single-bus schedule to check clean.
func TestCheckAcceptsValidSchedule(t *testing.T) {
	cleanDesign(t, exportState(t), "single-bus")
}

// TestCheckAcceptsBuiltDesign requires the design of a generated case
// routed over two gateways to check clean.
func TestCheckAcceptsBuiltDesign(t *testing.T) {
	cleanDesign(t, threeClusterState(t, 1), "three-cluster")
}

// cleanDesign builds st's design and requires Check to accept it.
func cleanDesign(t *testing.T, st *sched.State, label string) *Design {
	t.Helper()
	d, err := Build(st)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if errs := Check(d, st.System(), st.System().Apps...); len(errs) != 0 {
		t.Fatalf("%s, %d buses: valid design rejected: %v", label, len(st.System().Arch.Buses), errs[0])
	}
	return d
}

// fixture is a valid schedule the tampering table corrupts. Its
// occurrence 0 of chain crosses hops buses; same is a message between
// co-located processes.
type fixture struct {
	name  string
	st    *sched.State
	sys   *model.System
	ix    *model.Index
	chain *model.Message
	hops  int
	same  *model.Message
}

func newFixture(t *testing.T, name string, st *sched.State, hops int) *fixture {
	t.Helper()
	sys := st.System()
	f := &fixture{name: name, st: st, sys: sys, ix: model.NewIndex(sys.Apps...)}
	d := cleanDesign(t, st, name)
	count := map[model.MsgID]int{}
	for _, e := range d.MEDL {
		if e.Occ == 0 {
			count[e.Msg]++
		}
	}
	for _, m := range f.ix.Msg {
		switch n := count[m.ID]; {
		case n == hops && (f.chain == nil || m.ID < f.chain.ID):
			f.chain = m
		case n == 0 && d.Mapping[m.Src] == d.Mapping[m.Dst] && (f.same == nil || m.ID < f.same.ID):
			f.same = m
		}
	}
	if f.chain == nil || f.same == nil {
		t.Fatalf("%s: no %d-hop message or no co-located message", name, hops)
	}
	f.hops = hops
	return f
}

// threeClusterState schedules a generated case on three TDMA buses
// chained by two gateways.
func threeClusterState(t *testing.T, seed int64) *sched.State {
	t.Helper()
	cfg := gen.Multicluster(3, 3, 0.25)
	cfg.GraphMinProcs = 4
	cfg.GraphMaxProcs = 10
	tc, err := gen.MakeTestCase(cfg, seed, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	st := tc.Base.Clone()
	if _, err := st.MapApp(tc.Current, sched.Hints{}); err != nil {
		t.Fatal(err)
	}
	return st
}

// tamper gives a table row access to the design under corruption.
type tamper struct {
	t *testing.T
	d *Design
	*fixture
}

// act returns the activation of process p's occurrence 0, with its node
// table and position there.
func (m tamper) act(p model.ProcID) (*DispatchEntry, *NodeTable, int) {
	for ni := range m.d.Nodes {
		nt := &m.d.Nodes[ni]
		for i := range nt.Entries {
			if e := &nt.Entries[i]; e.Proc == p && e.Occ == 0 {
				return e, nt, i
			}
		}
	}
	m.t.Fatalf("process %d occ 0 not dispatched", p)
	return nil, nil, 0
}

// line returns the MEDL line of hop h of msg's occurrence 0 and its
// position in the MEDL.
func (m tamper) line(msg model.MsgID, h int) (*MEDLEntry, int) {
	for i := range m.d.MEDL {
		if e := &m.d.MEDL[i]; e.Msg == msg && e.Occ == 0 && e.Hop == h {
			return e, i
		}
	}
	m.t.Fatalf("message %d occ 0 hop %d not in the MEDL", msg, h)
	return nil, 0
}

// foreignSlot returns a slot of e's bus owned by another node than e's slot.
func (m tamper) foreignSlot(e *MEDLEntry) int {
	order := m.sys.Arch.Buses[e.Bus].SlotOrder
	for s, owner := range order {
		if owner != order[e.Slot] {
			return s
		}
	}
	m.t.Fatalf("bus %d has a single owner", e.Bus)
	return 0
}

func (m tamper) occs(p model.ProcID) int { return int(m.d.Horizon / m.ix.GraphOf[p].Period) }

func shift(e *DispatchEntry, start tm.Time) {
	e.End += start - e.Start
	e.Start = start
}

// tamperRows corrupts the built design one constraint at a time. want is
// a fragment of the violation Check must report; rows with hops > 1 need
// a multi-hop chain; alone rows must report nothing else.
var tamperRows = []struct {
	name   string
	hops   int
	want   string
	alone  bool
	mutate func(m tamper)
}{
	{name: "missing process", want: "missing from every dispatch table", mutate: func(m tamper) {
		_, nt, i := m.act(m.chain.Dst)
		nt.Entries = append(nt.Entries[:i], nt.Entries[i+1:]...)
	}},
	{name: "wrong wcet", want: "WCET on node", mutate: func(m tamper) {
		e, _, _ := m.act(m.chain.Src)
		e.End++
	}},
	{name: "deadline miss", want: "after its deadline", mutate: func(m tamper) {
		e, _, _ := m.act(m.chain.Dst)
		shift(e, m.ix.GraphOf[e.Proc].Deadline-(e.End-e.Start)+1)
	}},
	{name: "release", want: "before its release", mutate: func(m tamper) {
		e, _, _ := m.act(m.chain.Src)
		shift(e, -1)
	}},
	{name: "overlap", want: "overlaps previous", mutate: func(m tamper) {
		src, _, _ := m.act(m.same.Src)
		dst, _, _ := m.act(m.same.Dst)
		shift(dst, src.Start)
	}},
	{name: "duplicate dispatch", want: "more than once", mutate: func(m tamper) {
		_, nt, i := m.act(m.chain.Src)
		nt.Entries = append(nt.Entries, nt.Entries[i])
	}},
	{name: "disallowed node", want: "disallowed node", mutate: func(m tamper) {
		e, nt, i := m.act(m.chain.Src)
		moved := *e
		for ni := range m.d.Nodes {
			to := &m.d.Nodes[ni]
			if _, allowed := m.ix.Proc[moved.Proc].WCET[to.Node]; !allowed {
				nt.Entries = append(nt.Entries[:i], nt.Entries[i+1:]...)
				to.Entries = append(to.Entries, moved)
				return
			}
		}
		m.t.Fatalf("process %d may run on every node", moved.Proc)
	}},
	{name: "unknown process", want: "activates process", mutate: func(m tamper) {
		_, nt, _ := m.act(m.chain.Src)
		last := nt.Entries[len(nt.Entries)-1]
		nt.Entries = append(nt.Entries, DispatchEntry{Start: last.End, End: last.End + 1, Proc: 1 << 20})
	}},
	{name: "process occurrence past horizon", want: "activates process", mutate: func(m tamper) {
		e, nt, _ := m.act(m.chain.Src)
		extra := *e
		extra.Occ = m.occs(e.Proc)
		shift(&extra, nt.Entries[len(nt.Entries)-1].End)
		nt.Entries = append(nt.Entries, extra)
	}},
	{name: "precedence on one node", want: "co-located consumer", mutate: func(m tamper) {
		src, _, _ := m.act(m.same.Src)
		dst, _, _ := m.act(m.same.Dst)
		shift(dst, src.End-1)
	}},
	{name: "precedence across the bus", want: "before arrival", mutate: func(m tamper) {
		src, _, _ := m.act(m.chain.Src)
		dst, _, _ := m.act(m.chain.Dst)
		shift(dst, src.End)
	}},
	{name: "missing medl entry", want: "missing from the MEDL", mutate: func(m tamper) {
		m.d.MEDL = nil
	}},
	{name: "slot ownership", want: "slot owned by", mutate: func(m tamper) {
		e, _ := m.line(m.chain.ID, m.hops-1)
		e.Slot = m.foreignSlot(e)
	}},
	{name: "wrong message size", want: "model says", mutate: func(m tamper) {
		e, _ := m.line(m.chain.ID, 0)
		e.Bytes--
	}},
	{name: "capacity", want: "capacity", mutate: func(m tamper) {
		e, _ := m.line(m.chain.ID, 0)
		e.Bytes = m.sys.Arch.Buses[e.Bus].SlotBytes[e.Slot] + 1
	}},
	{name: "co-located message in the medl", want: "co-located processes is in the MEDL", mutate: func(m tamper) {
		e, _ := m.line(m.chain.ID, 0)
		stray := *e
		stray.Msg, stray.Bytes = m.same.ID, m.same.Bytes
		m.d.MEDL = append(m.d.MEDL, stray)
	}},
	{name: "unknown message", want: "MEDL carries message", mutate: func(m tamper) {
		e, _ := m.line(m.chain.ID, 0)
		stray := *e
		stray.Msg, stray.Bytes = 1<<20, 0
		m.d.MEDL = append(m.d.MEDL, stray)
	}},
	{name: "message occurrence past horizon", want: "MEDL carries message", mutate: func(m tamper) {
		e, _ := m.line(m.chain.ID, 0)
		stray := *e
		stray.Occ, stray.Bytes = m.occs(m.chain.Src), 0
		m.d.MEDL = append(m.d.MEDL, stray)
	}},
	{name: "horizon 0", want: "hyperperiod", alone: true, mutate: func(m tamper) {
		m.d.Horizon = 0
	}},
	{name: "horizon doubled", want: "hyperperiod", alone: true, mutate: func(m tamper) {
		m.d.Horizon *= 2
	}},
	{name: "horizon 2^40", want: "hyperperiod", alone: true, mutate: func(m tamper) {
		m.d.Horizon = 1 << 40
	}},
	{name: "hop on the wrong bus", hops: 2, want: "route says bus", mutate: func(m tamper) {
		h0, _ := m.line(m.chain.ID, 0)
		h1, _ := m.line(m.chain.ID, 1)
		h1.Bus, h1.Round, h1.Slot = h0.Bus, h0.Round, h0.Slot
	}},
	{name: "hop before the previous arrival", hops: 2, want: "before hop 0 arrives", mutate: func(m tamper) {
		h0, _ := m.line(m.chain.ID, 0)
		h1, _ := m.line(m.chain.ID, 1)
		arrive := m.sys.Arch.Buses[h0.Bus].SlotEnd(h0.Round, h0.Slot)
		for m.sys.Arch.Buses[h1.Bus].SlotStart(h1.Round, h1.Slot) >= arrive {
			h1.Round--
		}
	}},
	{name: "hop missing", hops: 2, want: "MEDL hops", mutate: func(m tamper) {
		_, i := m.line(m.chain.ID, 1)
		m.d.MEDL = append(m.d.MEDL[:i], m.d.MEDL[i+1:]...)
	}},
	{name: "extra hop", hops: 2, want: "MEDL hops", mutate: func(m tamper) {
		e, _ := m.line(m.chain.ID, m.hops-1)
		extra := *e
		extra.Hop = m.hops
		m.d.MEDL = append(m.d.MEDL, extra)
	}},
	{name: "renumbered hop", hops: 2, want: "hop 1 missing", mutate: func(m tamper) {
		e, _ := m.line(m.chain.ID, 1)
		e.Hop = 2
	}},
	{name: "hop-0 slot owner", hops: 2, want: "hop 0 in a slot owned by", mutate: func(m tamper) {
		e, _ := m.line(m.chain.ID, 0)
		e.Slot = m.foreignSlot(e)
	}},
}

// TestCheckDetectsTampering corrupts a valid design one constraint at a
// time, on one bus and on three clusters, and requires Check to name
// each corruption.
func TestCheckDetectsTampering(t *testing.T) {
	fixtures := []*fixture{
		newFixture(t, "single-bus", exportState(t), 1),
		newFixture(t, "three-cluster", threeClusterState(t, 1), 2),
	}
	for _, row := range tamperRows {
		t.Run(row.name, func(t *testing.T) {
			for _, f := range fixtures {
				if f.hops < row.hops {
					continue
				}
				t.Run(f.name, func(t *testing.T) {
					d, err := Build(f.st)
					if err != nil {
						t.Fatal(err)
					}
					row.mutate(tamper{t, d, f})
					errs := Check(d, f.sys, f.sys.Apps...)
					found := false
					for _, e := range errs {
						found = found || strings.Contains(e, row.want)
					}
					if !found || row.alone && len(errs) != 1 {
						t.Errorf("want a violation mentioning %q (alone: %v), got %d: %q", row.want, row.alone, len(errs), errs)
					}
				})
			}
		})
	}
}

// TestCheckRandomTestCases is the end-to-end oracle on one bus:
// generated cases, scheduled by the initial-mapping algorithm, must
// always check clean.
func TestCheckRandomTestCases(t *testing.T) {
	cfg := gen.Default()
	cfg.Nodes = 5
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 12
	for seed := int64(0); seed < 8; seed++ {
		tc, err := gen.MakeTestCase(cfg, seed, 50, 25)
		if err != nil {
			t.Fatal(err)
		}
		st := tc.Base.Clone()
		if _, err := st.MapApp(tc.Current, sched.Hints{}); err != nil {
			t.Fatal(err)
		}
		cleanDesign(t, st, fmt.Sprintf("seed %d", seed))
	}
}

// TestCheckGeneratedDesigns is the same oracle on three clusters chained
// by two gateways.
func TestCheckGeneratedDesigns(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cleanDesign(t, threeClusterState(t, seed), fmt.Sprintf("seed %d", seed))
	}
}
