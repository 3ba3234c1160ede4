// Package ttp models the time-triggered protocol bus (Kopetz & Grünsteidl,
// IEEE Computer 1994) at the level of detail the paper's scheduler needs:
// a static TDMA round of node-owned slots repeating over the schedule
// horizon, per-slot byte capacities, and reservation bookkeeping for the
// messages packed into each slot occurrence. The static MEDL (message
// descriptor list) a TTP controller is configured from is laid out by
// package export.
package ttp

import (
	"fmt"
	"slices"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// State tracks how many bytes of every slot occurrence are reserved over a
// schedule horizon. The horizon must be a whole number of TDMA rounds
// (guaranteed when it is the system hyperperiod, which includes the round
// length as an LCM factor).
type State struct {
	bus     *model.Bus
	horizon tm.Time
	rounds  int
	// start holds the offset of each slot in the round, NumSlots()+1
	// prefix sums of SlotDur, the last being the round length. It is
	// read-only and shared by clones.
	start []tm.Time
	// used holds the reserved bytes of every slot occurrence, round by
	// round: occurrence (round, slot) is used[round*NumSlots()+slot].
	used []int

	// stats are optional observability sinks (see obs.go). They never
	// influence reservation decisions.
	stats Stats
}

// NewState returns an empty reservation state over the horizon.
func NewState(bus *model.Bus, horizon tm.Time) (*State, error) {
	start := make([]tm.Time, bus.NumSlots()+1)
	for i := range bus.SlotOrder {
		start[i+1] = start[i] + bus.SlotDur(i)
	}
	rl := start[len(start)-1]
	if rl <= 0 {
		return nil, fmt.Errorf("ttp: bus round length %v must be positive", rl)
	}
	if horizon%rl != 0 {
		return nil, fmt.Errorf("ttp: horizon %v is not a multiple of the TDMA round %v", horizon, rl)
	}
	rounds := int(horizon / rl)
	return &State{bus: bus, horizon: horizon, rounds: rounds, start: start, used: make([]int, rounds*bus.NumSlots())}, nil
}

// Bus returns the underlying bus description.
func (s *State) Bus() *model.Bus { return s.bus }

// Horizon returns the schedule horizon the state covers.
func (s *State) Horizon() tm.Time { return s.horizon }

// Rounds returns the number of TDMA rounds inside the horizon.
func (s *State) Rounds() int { return s.rounds }

// SlotStart returns the absolute start time of slot occurrence
// (round, slot): Bus.SlotStart, read from the state's table of slot
// offsets.
func (s *State) SlotStart(round, slot int) tm.Time {
	return tm.Time(round)*s.roundLen() + s.start[slot]
}

// SlotEnd returns the absolute end time of slot occurrence (round, slot),
// when a message it carries is available at all receivers: Bus.SlotEnd,
// read from the state's table of slot offsets.
func (s *State) SlotEnd(round, slot int) tm.Time {
	return tm.Time(round)*s.roundLen() + s.start[slot+1]
}

func (s *State) roundLen() tm.Time { return s.start[len(s.start)-1] }

// Clone returns an independent copy of the reservation state: one
// allocation and one copy. What-if evaluations do not clone: they reserve
// under a transaction (package sched) and release on rollback.
func (s *State) Clone() *State {
	c := *s
	c.used = slices.Clone(s.used)
	return &c
}

// row returns the ledger of one round's slots. Indexing it with a slot
// outside the round panics, as does a round outside the horizon, rather
// than reaching a neighboring round's entry.
func (s *State) row(r int) []int {
	n := s.bus.NumSlots()
	return s.used[r*n : (r+1)*n : (r+1)*n]
}

// Used returns the reserved bytes of slot occurrence (round, slot).
func (s *State) Used(round, slot int) int { return s.row(round)[slot] }

// Free returns the free bytes of slot occurrence (round, slot).
func (s *State) Free(round, slot int) int {
	return s.bus.SlotBytes[slot] - s.row(round)[slot]
}

// Reserve books bytes in slot occurrence (round, slot). It fails if the
// occurrence lies outside the horizon or lacks capacity.
func (s *State) Reserve(round, slot, bytes int) error {
	if round < 0 || round >= s.rounds || slot < 0 || slot >= s.bus.NumSlots() {
		return fmt.Errorf("ttp: slot occurrence (%d,%d) outside horizon", round, slot)
	}
	if bytes <= 0 {
		return fmt.Errorf("ttp: reservation of %d bytes", bytes)
	}
	if s.Free(round, slot) < bytes {
		return fmt.Errorf("ttp: slot occurrence (%d,%d) has %d free bytes, need %d",
			round, slot, s.Free(round, slot), bytes)
	}
	s.row(round)[slot] += bytes
	return nil
}

// Release returns previously reserved bytes. Releasing more than is
// reserved is a bookkeeping bug and panics.
func (s *State) Release(round, slot, bytes int) {
	row := s.row(round)
	if row[slot] < bytes {
		panic(fmt.Sprintf("ttp: release of %d bytes from occurrence (%d,%d) holding %d",
			bytes, round, slot, row[slot]))
	}
	row[slot] -= bytes
}

// FindSlot returns the earliest slot occurrence owned by node that starts
// at or after earliest (the frame is assembled before the slot begins, so
// the message must exist by then), lies within the horizon, begins at
// round >= fromRound, and has at least bytes free. ok is false if no such
// occurrence exists. Each round is one walk of the slot order that skips
// the slots node does not own; only owned slots count as probes.
func (s *State) FindSlot(node model.NodeID, earliest tm.Time, bytes, fromRound int) (round, slot int, ok bool) {
	s.stats.FindSlotCalls.Inc()
	startRound := 0
	if earliest > 0 {
		startRound = int(earliest / s.roundLen()) // slot starts within this round could still be >= earliest
	}
	if fromRound > startRound {
		startRound = fromRound
	}
	probes := int64(0)
	for r := startRound; r < s.rounds; r++ {
		for sl, owner := range s.bus.SlotOrder {
			if owner != node {
				continue
			}
			probes++
			if s.SlotStart(r, sl) < earliest {
				continue
			}
			if s.Free(r, sl) >= bytes {
				s.stats.SlotProbes.Add(probes)
				return r, sl, true
			}
		}
		if probes == 0 {
			break // node owns no slot of this bus
		}
	}
	s.stats.SlotProbes.Add(probes)
	return 0, 0, false
}
