package ttp

import (
	"testing"

	"incdes/internal/model"
	"incdes/internal/tm"
)

func testBus() *model.Bus {
	return &model.Bus{
		SlotOrder:    []model.NodeID{1, 0}, // slide-5 slot order: S1 then S0
		SlotBytes:    []int{8, 8},
		ByteTime:     2,
		SlotOverhead: 2,
	}
	// slot duration 18, round length 36
}

func TestNewStateRequiresRoundMultiple(t *testing.T) {
	bus := testBus()
	if _, err := NewState(bus, 100); err == nil {
		t.Error("horizon not multiple of round accepted")
	}
	st, err := NewState(bus, 360)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	if st.Rounds() != 10 {
		t.Errorf("Rounds = %d, want 10", st.Rounds())
	}
}

func TestReserveAndFree(t *testing.T) {
	st, _ := NewState(testBus(), 360)
	if got := st.Free(0, 0); got != 8 {
		t.Fatalf("initial free = %d", got)
	}
	if err := st.Reserve(0, 0, 5); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if got := st.Free(0, 0); got != 3 {
		t.Errorf("free after reserve = %d, want 3", got)
	}
	if err := st.Reserve(0, 0, 4); err == nil {
		t.Error("over-capacity reservation accepted")
	}
	if err := st.Reserve(0, 0, 3); err != nil {
		t.Errorf("exact-fit reservation rejected: %v", err)
	}
	st.Release(0, 0, 8)
	if got := st.Free(0, 0); got != 8 {
		t.Errorf("free after release = %d, want 8", got)
	}
	if err := st.Reserve(99, 0, 1); err == nil {
		t.Error("out-of-horizon reservation accepted")
	}
	if err := st.Reserve(0, 0, 0); err == nil {
		t.Error("zero-byte reservation accepted")
	}
}

func TestReleasePanicsOnUnderflow(t *testing.T) {
	st, _ := NewState(testBus(), 36)
	defer func() {
		if recover() == nil {
			t.Error("Release underflow did not panic")
		}
	}()
	st.Release(0, 0, 1)
}

func TestFindSlotBasics(t *testing.T) {
	st, _ := NewState(testBus(), 360) // rounds of 36; node 1 owns slot 0, node 0 owns slot 1
	// Node 0's slot in round 0 starts at 18.
	r, sl, ok := st.FindSlot(0, 0, 4, 0)
	if !ok || r != 0 || sl != 1 {
		t.Fatalf("FindSlot(node0, t=0) = (%d,%d,%v)", r, sl, ok)
	}
	// earliest after the slot start pushes to the next round.
	r, sl, ok = st.FindSlot(0, 19, 4, 0)
	if !ok || r != 1 || sl != 1 {
		t.Errorf("FindSlot(node0, t=19) = (%d,%d,%v), want round 1", r, sl, ok)
	}
	// earliest exactly at slot start is allowed (frame assembled at start).
	r, _, ok = st.FindSlot(0, 18, 4, 0)
	if !ok || r != 0 {
		t.Errorf("FindSlot(node0, t=18) = round %d, want 0", r)
	}
	// fromRound skips earlier rounds even if they are free.
	r, _, ok = st.FindSlot(0, 0, 4, 3)
	if !ok || r != 3 {
		t.Errorf("FindSlot(fromRound=3) = round %d, want 3", r)
	}
	// Unknown node owns no slots.
	if _, _, ok := st.FindSlot(7, 0, 1, 0); ok {
		t.Error("FindSlot for slotless node succeeded")
	}
}

func TestFindSlotSkipsFullOccurrences(t *testing.T) {
	st, _ := NewState(testBus(), 360)
	// Fill node 0's slot in rounds 0..2.
	for r := 0; r < 3; r++ {
		if err := st.Reserve(r, 1, 8); err != nil {
			t.Fatalf("Reserve round %d: %v", r, err)
		}
	}
	r, _, ok := st.FindSlot(0, 0, 2, 0)
	if !ok || r != 3 {
		t.Errorf("FindSlot over full rounds = round %d (ok=%v), want 3", r, ok)
	}
	// A message bigger than the slot can never be placed.
	if _, _, ok := st.FindSlot(0, 0, 9, 0); ok {
		t.Error("FindSlot placed an oversized message")
	}
}

func TestFindSlotHorizonBound(t *testing.T) {
	st, _ := NewState(testBus(), 72) // 2 rounds
	if _, _, ok := st.FindSlot(0, 60, 1, 0); ok {
		t.Error("FindSlot returned an occurrence starting after every slot of node 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	st, _ := NewState(testBus(), 72)
	if err := st.Reserve(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	c := st.Clone()
	if err := c.Reserve(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if st.Free(0, 0) != 4 {
		t.Error("Clone shares reservation storage with original")
	}
	if c.Free(0, 0) != 0 {
		t.Error("Clone lost reservation")
	}
}

func TestOccurrencesOrdering(t *testing.T) {
	st, _ := NewState(testBus(), 72)
	bus := st.Bus()
	if n := st.Rounds() * bus.NumSlots(); n != 4 {
		t.Fatalf("%d slot occurrences, want 4", n)
	}
	var prev tm.Time = -1
	for r := 0; r < st.Rounds(); r++ {
		for sl := 0; sl < bus.NumSlots(); sl++ {
			start, end := bus.SlotStart(r, sl), bus.SlotEnd(r, sl)
			if start < prev {
				t.Errorf("occurrence (%d,%d) starts at %v, before the previous one at %v", r, sl, start, prev)
			}
			prev = start
			if end-start != 18 {
				t.Errorf("slot duration = %v, want 18", end-start)
			}
			if st.Free(r, sl) != bus.SlotBytes[sl] {
				t.Errorf("occurrence (%d,%d) has %d free bytes, want %d", r, sl, st.Free(r, sl), bus.SlotBytes[sl])
			}
		}
	}
	if bus.SlotOrder[0] != 1 || bus.SlotOrder[1] != 0 {
		t.Errorf("slot owners wrong: %v, %v", bus.SlotOrder[0], bus.SlotOrder[1])
	}
}

// TestOutOfRangeOccurrencePanics pins that reading or releasing an
// occurrence outside the ledger panics instead of reaching a neighboring
// round's entry. Every occurrence is full, so a release that landed on a
// neighbor would succeed silently.
func TestOutOfRangeOccurrencePanics(t *testing.T) {
	st, _ := NewState(testBus(), 360)
	n := st.Bus().NumSlots()
	for r := 0; r < st.Rounds(); r++ {
		for sl := 0; sl < n; sl++ {
			if err := st.Reserve(r, sl, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, occ := range [][2]int{{1, n}, {1, -1}, {st.Rounds(), 0}} {
		r, sl := occ[0], occ[1]
		for _, op := range []struct {
			name string
			f    func()
		}{
			{"Used", func() { st.Used(r, sl) }},
			{"Free", func() { st.Free(r, sl) }},
			{"Release", func() { st.Release(r, sl, 1) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d, %d) did not panic", op.name, r, sl)
					}
				}()
				op.f()
			}()
		}
	}
}

var cloneSink *State

// TestCloneAllocs pins that cloning costs one ledger allocation however
// many rounds the horizon holds, plus the State itself.
func TestCloneAllocs(t *testing.T) {
	st, _ := NewState(testBus(), 36*1000) // 1000 rounds
	if n := testing.AllocsPerRun(50, func() { cloneSink = st.Clone() }); n > 2 {
		t.Errorf("Clone of a %d-round state allocates %v times, want at most 2", st.Rounds(), n)
	}
}
