package ttp

import "incdes/internal/obs"

// Stats are the bus-side observability instruments a State reports
// into. The zero value (all nil) disables instrumentation at the cost
// of one nil check per event; see package obs.
type Stats struct {
	// FindSlotCalls counts FindSlot invocations.
	FindSlotCalls *obs.Counter
	// SlotProbes counts slot occurrences examined across FindSlot scans:
	// the bus-side analogue of "design alternatives touched".
	SlotProbes *obs.Counter
	// Reservations counts successful slot reservations.
	Reservations *obs.Counter
}

// StatsFrom resolves the canonical bus instruments from a registry.
// A nil registry yields all-nil (disabled) stats.
func StatsFrom(r *obs.Registry) Stats {
	return Stats{
		FindSlotCalls: r.Counter(obs.CtrTTPFindSlot),
		SlotProbes:    r.Counter(obs.CtrTTPProbes),
		Reservations:  r.Counter(obs.CtrTTPReserve),
	}
}

// SetStats attaches observability instruments to the state. Stats are
// sink configuration, not schedule content: Clone propagates them.
func (s *State) SetStats(st Stats) { s.stats = st }

// Occupancy summarizes slot usage over the horizon: the TTP-side view
// of how much bus headroom the final design left for future
// applications.
type Occupancy struct {
	Rounds, Slots int // reservation matrix shape
	UsedBytes     int // reserved bytes over the horizon
	CapacityBytes int // total slot capacity over the horizon
	OccupiedSlots int // slot occurrences carrying at least one byte
}

// Occupancy computes the current slot-occupancy summary.
func (s *State) Occupancy() Occupancy {
	oc := Occupancy{Rounds: s.rounds, Slots: s.bus.NumSlots()}
	for r := 0; r < s.rounds; r++ {
		for sl := 0; sl < oc.Slots; sl++ {
			oc.CapacityBytes += s.bus.SlotBytes[sl]
			if used := s.used[r][sl]; used > 0 {
				oc.UsedBytes += used
				oc.OccupiedSlots++
			}
		}
	}
	return oc
}
