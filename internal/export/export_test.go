package export

import (
	"bytes"
	"reflect"
	"testing"

	"incdes/internal/gen"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// exportState schedules a two-node system with one graph: P1 on N0
// sends message 0 across the bus to P2 on N1, and P2 sends message 1 to
// P3 on the same node.
func exportState(t testing.TB) *sched.State {
	t.Helper()
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2) // round 20
	g := b.App("a").Graph("G", 100, 100)
	p1 := g.Proc("P1", map[model.NodeID]tm.Time{n0: 10})
	p2 := g.Proc("P2", map[model.NodeID]tm.Time{n1: 15})
	p3 := g.Proc("P3", map[model.NodeID]tm.Time{n1: 5})
	g.Msg(p1, p2, 4)
	g.Msg(p2, p3, 2)
	sys, err := b.System()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p1: n0, p2: n1, p3: n1}, sched.Hints{}); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBuildDesign(t *testing.T) {
	d, err := Build(exportState(t))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if d.Horizon != 100 || d.RoundLen != 20 {
		t.Errorf("header = %v/%v", d.Horizon, d.RoundLen)
	}
	if len(d.Nodes) != 2 {
		t.Fatalf("%d node tables", len(d.Nodes))
	}
	if len(d.Nodes[0].Entries) != 1 || d.Nodes[0].Entries[0].Proc != 0 {
		t.Errorf("node 0 table = %+v", d.Nodes[0])
	}
	if len(d.MEDL) != 1 || d.MEDL[0].Msg != 0 {
		t.Errorf("MEDL = %+v", d.MEDL)
	}
	if d.Mapping[0] != 0 || d.Mapping[1] != 1 {
		t.Errorf("mapping = %v", d.Mapping)
	}
}

func TestDesignJSONRoundTrip(t *testing.T) {
	d, err := Build(exportState(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDesign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Error("JSON round trip changed the design")
	}
}

func TestDesignBinaryRoundTrip(t *testing.T) {
	d, err := Build(exportState(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if got.Horizon != d.Horizon || got.RoundLen != d.RoundLen {
		t.Errorf("header changed: %v/%v", got.Horizon, got.RoundLen)
	}
	if len(got.Nodes) != len(d.Nodes) {
		t.Fatalf("node tables: %d vs %d", len(got.Nodes), len(d.Nodes))
	}
	for i := range d.Nodes {
		if !reflect.DeepEqual(got.Nodes[i], d.Nodes[i]) {
			t.Errorf("node table %d changed", i)
		}
	}
	if len(got.MEDL) != len(d.MEDL) {
		t.Fatalf("MEDL length changed")
	}
	for i := range d.MEDL {
		g, w := got.MEDL[i], d.MEDL[i]
		if g.Round != w.Round || g.Slot != w.Slot || g.Offset != w.Offset ||
			g.Msg != w.Msg || g.Occ != w.Occ || g.Bytes != w.Bytes {
			t.Errorf("MEDL entry %d changed: %+v vs %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got.Mapping, d.Mapping) {
		t.Errorf("mapping not reconstructed: %v vs %v", got.Mapping, d.Mapping)
	}
}

func TestBinaryDetectsCorruption(t *testing.T) {
	d, err := Build(exportState(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// Flip a payload byte: checksum must catch it.
	bad := append([]byte(nil), img...)
	bad[20] ^= 0xFF
	if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted image decoded")
	}
	// Truncate: must fail cleanly.
	if _, err := DecodeBinary(bytes.NewReader(img[:len(img)-6])); err == nil {
		t.Error("truncated image decoded")
	}
	// Wrong magic.
	bad = append([]byte(nil), img...)
	bad[0] = 'X'
	if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil {
		t.Error("wrong magic accepted")
	}
}

func TestBuildOnGeneratedCase(t *testing.T) {
	cfg := gen.Default()
	cfg.Nodes = 4
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 8
	tc, err := gen.MakeTestCase(cfg, 17, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(tc.Base)
	if err != nil {
		t.Fatalf("Build on generated schedule: %v", err)
	}
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(&buf); err != nil {
		t.Fatalf("round trip on generated design: %v", err)
	}
	// Every scheduled activation appears in exactly one dispatch table.
	total := 0
	for _, nt := range d.Nodes {
		total += len(nt.Entries)
	}
	if total != len(tc.Base.ProcEntries()) {
		t.Errorf("%d dispatch entries for %d schedule entries", total, len(tc.Base.ProcEntries()))
	}
}

// TestBuildMEDL pins the MEDL layout: byte offsets inside a slot
// occurrence follow (message, occurrence) order, every bus lays out its
// own occurrences, the list is sorted by (Start, Bus, Offset), and an
// overflowing occurrence is an error.
func TestBuildMEDL(t *testing.T) {
	// Bus 0: slots of 18 (round 36); bus 1: slots of 9 (round 18).
	buses := []*model.Bus{
		{SlotOrder: []model.NodeID{1, 0}, SlotBytes: []int{8, 8}, ByteTime: 2, SlotOverhead: 2},
		{ID: 1, SlotOrder: []model.NodeID{2, 1}, SlotBytes: []int{4, 4}, ByteTime: 1, SlotOverhead: 5},
	}
	// Hops carry their slot occurrence's start and end, as sched sets
	// them.
	oneBus := []sched.MsgEntry{
		{Msg: 2, Occ: 0, Round: 0, Slot: 0, Bytes: 3, Start: 0, Arrive: 18},
		{Msg: 1, Occ: 0, Round: 0, Slot: 0, Bytes: 4, Start: 0, Arrive: 18},
		{Msg: 3, Occ: 1, Round: 1, Slot: 1, Bytes: 8, Start: 54, Arrive: 72},
	}
	medl, err := buildMEDL(buses[:1], oneBus)
	if err != nil {
		t.Fatalf("buildMEDL: %v", err)
	}
	want := []MEDLEntry{
		{Round: 0, Slot: 0, Offset: 0, Msg: 1, Occ: 0, Bytes: 4, Owner: 1, Start: 0, End: 18},
		{Round: 0, Slot: 0, Offset: 4, Msg: 2, Occ: 0, Bytes: 3, Owner: 1, Start: 0, End: 18},
		{Round: 1, Slot: 1, Offset: 0, Msg: 3, Occ: 1, Bytes: 8, Owner: 0, Start: 54, End: 72},
	}
	if !reflect.DeepEqual(medl, want) {
		t.Errorf("one-bus MEDL =\n%+v\nwant\n%+v", medl, want)
	}
	if oneBus[0].Msg != 2 {
		t.Error("buildMEDL reordered the schedule's hops")
	}

	// Bus 1's slot occurrences start at 0 and 54 too: offsets restart
	// per bus, and equal starts order by bus.
	twoBus := append(append([]sched.MsgEntry(nil), oneBus...),
		sched.MsgEntry{Msg: 3, Occ: 1, Round: 3, Slot: 0, Bytes: 4, Start: 54, Arrive: 63, Bus: 1, Hop: 1},
		sched.MsgEntry{Msg: 5, Occ: 0, Round: 0, Slot: 0, Bytes: 2, Start: 0, Arrive: 9, Bus: 1},
		sched.MsgEntry{Msg: 4, Occ: 0, Round: 0, Slot: 0, Bytes: 2, Start: 0, Arrive: 9, Bus: 1},
	)
	medl, err = buildMEDL(buses, twoBus)
	if err != nil {
		t.Fatalf("buildMEDL: %v", err)
	}
	want = []MEDLEntry{
		want[0], want[1],
		{Round: 0, Slot: 0, Offset: 0, Msg: 4, Occ: 0, Bytes: 2, Owner: 2, Start: 0, End: 9, Bus: 1},
		{Round: 0, Slot: 0, Offset: 2, Msg: 5, Occ: 0, Bytes: 2, Owner: 2, Start: 0, End: 9, Bus: 1},
		want[2],
		{Round: 3, Slot: 0, Offset: 0, Msg: 3, Occ: 1, Bytes: 4, Owner: 2, Start: 54, End: 63, Bus: 1, Hop: 1},
	}
	if !reflect.DeepEqual(medl, want) {
		t.Errorf("two-bus MEDL =\n%+v\nwant\n%+v", medl, want)
	}

	over := append(oneBus, sched.MsgEntry{Msg: 4, Occ: 0, Round: 0, Slot: 0, Bytes: 5, Start: 0, Arrive: 18})
	if _, err := buildMEDL(buses[:1], over); err == nil {
		t.Error("overflowing MEDL accepted")
	}
}
