package slack

import (
	"reflect"
	"testing"

	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// occupiedState builds a 2-node system (bus round 20) with one application
// whose two processes are pinned by hints: A on node 0 at [10,40),
// B on node 1 at [50,60); horizon 100.
func occupiedState(t *testing.T) *sched.State {
	t.Helper()
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2)
	g := b.App("a").Graph("G", 100, 100)
	pa := g.Proc("A", map[model.NodeID]tm.Time{n0: 30})
	pb := g.Proc("B", map[model.NodeID]tm.Time{n1: 10})
	sys, err := b.System()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	hints := sched.Hints{}.SetProcStart(pa, 10).SetProcStart(pb, 50)
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{pa: n0, pb: n1}, hints); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestProcessorSlack(t *testing.T) {
	st := occupiedState(t)
	per := Processor(st)
	want0 := []tm.Interval{tm.Iv(0, 10), tm.Iv(40, 100)}
	if !reflect.DeepEqual(per[0], want0) {
		t.Errorf("node 0 slack = %v, want %v", per[0], want0)
	}
	want1 := []tm.Interval{tm.Iv(0, 50), tm.Iv(60, 100)}
	if !reflect.DeepEqual(per[1], want1) {
		t.Errorf("node 1 slack = %v, want %v", per[1], want1)
	}
}

func TestAllIntervalsAndLengths(t *testing.T) {
	st := occupiedState(t)
	ivs := AllIntervals(Processor(st))
	if len(ivs) != 4 {
		t.Fatalf("%d intervals, want 4", len(ivs))
	}
	lens := Lengths(ivs)
	want := []int64{10, 60, 50, 40}
	if !reflect.DeepEqual(lens, want) {
		t.Errorf("Lengths = %v, want %v", lens, want)
	}
}

func TestWindowSlack(t *testing.T) {
	idle := []tm.Interval{tm.Iv(0, 10), tm.Iv(40, 100)}
	got := WindowSlack(idle, 50, 100)
	// Window [0,50): idle 0-10 and 40-50 = 20. Window [50,100): 50.
	want := []tm.Time{20, 50}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WindowSlack = %v, want %v", got, want)
	}
}

func TestWindowSlackShortHorizon(t *testing.T) {
	idle := []tm.Interval{tm.Iv(0, 30)}
	got := WindowSlack(idle, 500, 100) // Tmin longer than the horizon
	if len(got) != 1 || got[0] != 30 {
		t.Errorf("WindowSlack = %v, want [30]", got)
	}
}

func TestBusFreeBytes(t *testing.T) {
	st := occupiedState(t)
	free := BusFreeBytes(st)
	// 5 rounds x 2 slots, no messages scheduled: all 8 bytes free.
	if len(free) != 10 {
		t.Fatalf("%d slot occurrences, want 10", len(free))
	}
	for i, f := range free {
		if f != 8 {
			t.Errorf("occurrence %d free = %d, want 8", i, f)
		}
	}
}

func TestBusWindowFree(t *testing.T) {
	st := occupiedState(t)
	// Reserve 3 bytes in the very first slot occurrence.
	if err := st.BusStateAt(0).Reserve(0, 0, 3); err != nil {
		t.Fatal(err)
	}
	ws := BusWindowFree(st, 50)
	// Per 50-tu window: 2.5 rounds; slots ending in [0,50): rounds 0 and 1
	// fully (4 slots), plus round 2 slot 0 ends at 50... end-1=49 -> w=0.
	// Total capacity: 5 slots * 8 - 3 = 37. Second window: 5 slots * 8 = 40.
	want := []int64{37, 40}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("BusWindowFree = %v, want %v", ws, want)
	}
	if got := MinBusWindowFree(st, 50); got != 37 {
		t.Errorf("MinBusWindowFree = %d, want 37", got)
	}
}
