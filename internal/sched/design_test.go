package sched_test

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"incdes/internal/gen"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// checkDesign fails unless d, converted to maps, is (mapping, hints) and
// its by-ID accessors read what the maps read; an absent hint is 0.
func checkDesign(t *testing.T, label string, d *sched.Design, app *model.Application, mapping model.Mapping, hints sched.Hints) {
	t.Helper()
	if got := d.Mapping(); !reflect.DeepEqual(got, mapping) {
		t.Fatalf("%s: mapping %v, want %v", label, got, mapping)
	}
	if got := d.Hints(); !maps.Equal(got.ProcStart, hints.ProcStart) || !maps.Equal(got.MsgStart, hints.MsgStart) {
		t.Fatalf("%s: hints %v, want %v", label, got, hints)
	}
	for _, g := range app.Graphs {
		for _, p := range g.Procs {
			if d.Node(p.ID) != mapping[p.ID] || d.ProcStart(p.ID) != hints.ProcStart[p.ID] {
				t.Fatalf("%s: process %d reads (%d, %d), want (%d, %d)", label, p.ID,
					d.Node(p.ID), d.ProcStart(p.ID), mapping[p.ID], hints.ProcStart[p.ID])
			}
		}
		for _, m := range g.Msgs {
			if d.MsgStart(m.ID) != hints.MsgStart[m.ID] {
				t.Fatalf("%s: message %d reads %d, want %d", label, m.ID, d.MsgStart(m.ID), hints.MsgStart[m.ID])
			}
		}
	}
}

// TestDesignWithMatchesApply walks random moves over a design: process
// moves to an allowed node or, one in eight, to a node the architecture
// lacks, message moves, starts of 0 or less that clear a hint, and the
// zero move. After every step Design.With, converted to maps, must
// equal the move applied over the maps (Move.Apply, the map-based
// reference), and the design it was applied to must be unchanged.
func TestDesignWithMatchesApply(t *testing.T) {
	tc, err := gen.MakeTestCase(quickConfig(), 3, 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	app := tc.Current
	ord, err := tc.Base.Order(app)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mapping, hints := randomMapping(rng, app), fuzzHints(rng, app)
	d := ord.Design(mapping, hints)
	checkDesign(t, "start", d, app, mapping, hints)
	cleared := 0
	for i := 0; i < 3000; i++ {
		mv := fuzzMove(rng, app)
		switch rng.Intn(8) {
		case 0:
			mv.Start = 0
		case 1:
			mv.Start = -tm.Time(rng.Intn(50))
		case 2:
			mv = sched.Move{}
		}
		if mv.Kind != 0 && mv.Start <= 0 {
			cleared++
		}
		next := d.With(mv)
		nextMapping, nextHints := mv.Apply(mapping, hints)
		checkDesign(t, "step", next, app, nextMapping, nextHints)
		checkDesign(t, "receiver", d, app, mapping, hints)
		d, mapping, hints = next, nextMapping, nextHints
	}
	if cleared == 0 {
		t.Fatal("no move cleared a hint")
	}
}

var designSink *sched.Design

// TestDesignWithAllocs pins the cost of a design transformation: With
// allocates the Design and one array, for a design without hints and one
// with a hint on every process and message, and for every kind of move.
func TestDesignWithAllocs(t *testing.T) {
	tc, err := gen.MakeTestCase(quickConfig(), 3, 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	app := tc.Current
	ord, err := tc.Base.Order(app)
	if err != nil {
		t.Fatal(err)
	}
	mapping := randomMapping(rand.New(rand.NewSource(2)), app)
	every := sched.Hints{ProcStart: map[model.ProcID]tm.Time{}, MsgStart: map[model.MsgID]tm.Time{}}
	for _, g := range app.Graphs {
		for _, p := range g.Procs {
			every.ProcStart[p.ID] = 1
		}
		for _, m := range g.Msgs {
			every.MsgStart[m.ID] = 1
		}
	}
	g := app.Graphs[0]
	p := g.Procs[0]
	other := ord.AllowedNodes(p.ID)[0]
	if other == mapping[p.ID] {
		other = ord.AllowedNodes(p.ID)[len(ord.AllowedNodes(p.ID))-1]
	}
	moves := map[string]sched.Move{
		"zero":   {},
		"offset": {Kind: sched.MoveProc, Proc: p.ID, Node: mapping[p.ID], Start: 5},
		"remap":  {Kind: sched.MoveProc, Proc: p.ID, Node: other},
	}
	if len(g.Msgs) > 0 {
		moves["message"] = sched.Move{Kind: sched.MoveMsg, Msg: g.Msgs[0].ID, Start: 3}
	}
	for name, hints := range map[string]sched.Hints{"no hints": {}, "every hint": every} {
		d := ord.Design(mapping, hints)
		for mvName, mv := range moves {
			if allocs := testing.AllocsPerRun(100, func() { designSink = d.With(mv) }); allocs != 2 {
				t.Errorf("%s, %s move: With allocates %.1f objects, want 2", name, mvName, allocs)
			}
		}
	}
}
