package ttp

import (
	"testing"

	"incdes/internal/model"
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
