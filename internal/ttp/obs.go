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
}

// StatsFrom resolves the canonical bus instruments from a registry.
// A nil registry yields all-nil (disabled) stats.
func StatsFrom(r *obs.Registry) Stats {
	return Stats{
		FindSlotCalls: r.Counter(obs.CtrTTPFindSlot),
		SlotProbes:    r.Counter(obs.CtrTTPProbes),
	}
}

// SetStats attaches observability instruments to the state. Stats are
// sink configuration, not schedule content: Clone propagates them.
func (s *State) SetStats(st Stats) { s.stats = st }
