package ttp

import (
	"math/rand"
	"testing"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// multiSlotBus gives node 0 two slots per round (slots 0 and 2) and node
// 1 one slot (slot 1), with different capacities.
func multiSlotBus() *model.Bus {
	return &model.Bus{
		SlotOrder:    []model.NodeID{0, 1, 0},
		SlotBytes:    []int{4, 8, 16},
		ByteTime:     1,
		SlotOverhead: 2,
	}
	// durations: 6, 10, 18; round length 34
}

func TestSlotsOfMultipleSlots(t *testing.T) {
	bus := multiSlotBus()
	slots := bus.SlotsOf(0)
	if len(slots) != 2 || slots[0] != 0 || slots[1] != 2 {
		t.Fatalf("SlotsOf(0) = %v, want [0 2]", slots)
	}
}

func TestFindSlotPrefersEarliestOfOwnedSlots(t *testing.T) {
	st, err := NewState(multiSlotBus(), 340) // 10 rounds
	if err != nil {
		t.Fatal(err)
	}
	// At t=0, node 0's slot 0 (start 0) requires earliest <= 0; for a
	// message ready at 1, slot 2 (start 16) is the earliest usable.
	r, sl, ok := st.FindSlot(0, 1, 4, 0)
	if !ok || r != 0 || sl != 2 {
		t.Errorf("FindSlot = (%d,%d,%v), want round 0 slot 2", r, sl, ok)
	}
	// A 10-byte message only fits the 16-byte slot.
	r, sl, ok = st.FindSlot(0, 0, 10, 0)
	if !ok || sl != 2 {
		t.Errorf("oversized-for-slot-0 message went to (%d,%d,%v), want slot 2", r, sl, ok)
	}
	// A 3-byte message ready at 0 takes slot 0 of round 0.
	r, sl, ok = st.FindSlot(0, 0, 3, 0)
	if !ok || r != 0 || sl != 0 {
		t.Errorf("small message went to (%d,%d,%v), want round 0 slot 0", r, sl, ok)
	}
}

func TestFindSlotFallsAcrossOwnedSlots(t *testing.T) {
	st, err := NewState(multiSlotBus(), 340)
	if err != nil {
		t.Fatal(err)
	}
	// Fill node 0's slot 0 in round 0; a 4-byte message ready at 0 must
	// use slot 2 of round 0 instead.
	if err := st.Reserve(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	r, sl, ok := st.FindSlot(0, 0, 4, 0)
	if !ok || r != 0 || sl != 2 {
		t.Errorf("FindSlot = (%d,%d,%v), want round 0 slot 2", r, sl, ok)
	}
}

func TestOccurrencesMultiSlotTiming(t *testing.T) {
	st, err := NewState(multiSlotBus(), 68) // 2 rounds
	if err != nil {
		t.Fatal(err)
	}
	bus := st.Bus()
	if n := st.Rounds() * bus.NumSlots(); n != 6 {
		t.Fatalf("%d occurrences, want 6", n)
	}
	// The fifth occurrence in time order is round 1 slot 1: it starts at
	// 34 + 6 = 40 and ends at 50.
	r, sl := 4/bus.NumSlots(), 4%bus.NumSlots()
	if r != 1 || sl != 1 || bus.SlotStart(r, sl) != 40 || bus.SlotEnd(r, sl) != 50 {
		t.Errorf("occurrence 4 = round %d slot %d [%v,%v), want round 1 slot 1 [40,50)",
			r, sl, bus.SlotStart(r, sl), bus.SlotEnd(r, sl))
	}
}

// TestSlotTimesMatchBus: the state's table of slot offsets gives every
// occurrence the times Bus.SlotStart and Bus.SlotEnd define, on the
// test buses, on every bus of a cluster chain and on random buses; and
// under random reservations, FindSlot returns the first occurrence in
// time order that a scan by those times accepts.
func TestSlotTimesMatchBus(t *testing.T) {
	buses := []*model.Bus{testBus(), multiSlotBus()}
	buses = append(buses, model.ClusterChain([]int{3, 4, 2}, 2, 8, 2, 3).Buses...)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		bus := &model.Bus{ByteTime: tm.Time(rng.Intn(4)), SlotOverhead: tm.Time(1 + rng.Intn(5))}
		for n := 1 + rng.Intn(8); n > 0; n-- {
			bus.SlotOrder = append(bus.SlotOrder, model.NodeID(rng.Intn(4)))
			bus.SlotBytes = append(bus.SlotBytes, rng.Intn(32))
		}
		buses = append(buses, bus)
	}
	for i, bus := range buses {
		st, err := NewState(bus, 5*bus.RoundLen())
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < st.Rounds(); r++ {
			for sl := range bus.SlotOrder {
				if st.SlotStart(r, sl) != bus.SlotStart(r, sl) || st.SlotEnd(r, sl) != bus.SlotEnd(r, sl) {
					t.Fatalf("bus %d occurrence (%d,%d): state [%v,%v), bus [%v,%v)", i, r, sl,
						st.SlotStart(r, sl), st.SlotEnd(r, sl), bus.SlotStart(r, sl), bus.SlotEnd(r, sl))
				}
			}
		}
		for k := 0; k < 100; k++ {
			r, sl := rng.Intn(st.Rounds()), rng.Intn(bus.NumSlots())
			if free := st.Free(r, sl); free > 0 {
				if err := st.Reserve(r, sl, 1+rng.Intn(free)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 0; k < 100; k++ {
			node, bytes := model.NodeID(rng.Intn(10)), 1+rng.Intn(16)
			earliest, from := tm.Time(rng.Int63n(int64(st.Horizon()))), rng.Intn(st.Rounds())
			wr, wsl, wok := 0, 0, false
		scan:
			for r := from; r < st.Rounds(); r++ {
				for sl, owner := range bus.SlotOrder {
					if owner == node && bus.SlotStart(r, sl) >= earliest && st.Free(r, sl) >= bytes {
						wr, wsl, wok = r, sl, true
						break scan
					}
				}
			}
			if r, sl, ok := st.FindSlot(node, earliest, bytes, from); r != wr || sl != wsl || ok != wok {
				t.Fatalf("bus %d FindSlot(%d, %v, %d, %d) = (%d,%d,%v), scan gives (%d,%d,%v)",
					i, node, earliest, bytes, from, r, sl, ok, wr, wsl, wok)
			}
		}
	}
}

// TestFindSlotAllocs: a slot search allocates nothing.
func TestFindSlotAllocs(t *testing.T) {
	st, err := NewState(multiSlotBus(), 340)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { st.FindSlot(0, 100, 10, 0) }); n != 0 {
		t.Errorf("FindSlot: %v allocs per call, want 0", n)
	}
}
