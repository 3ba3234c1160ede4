package sched

import (
	"incdes/internal/obs"
	"incdes/internal/ttp"
)

// Stats are the scheduler-side observability instruments a State
// reports into. The zero value (all nil) disables instrumentation; see
// package obs for the "free when off" contract.
type Stats struct {
	// ScheduleCalls counts ScheduleApp, Txn.Apply and Txn.Replace calls
	// on an instrumented state. Of a Solve's states only the engine's
	// worker copies are instrumented, so it counts one per evaluated
	// candidate.
	ScheduleCalls *obs.Counter
	// JobsPlaced counts process occurrences inserted into node schedules.
	JobsPlaced *obs.Counter
}

// StatsFrom resolves the canonical scheduler instruments from a
// registry. A nil registry yields all-nil (disabled) stats.
func StatsFrom(r *obs.Registry) Stats {
	return Stats{
		ScheduleCalls: r.Counter(obs.CtrSchedCalls),
		JobsPlaced:    r.Counter(obs.CtrSchedJobs),
	}
}

// SetStats attaches observability instruments to the state. Stats are
// sink configuration, not schedule content: Clone propagates them to
// the copy. Bus-side instruments attach separately via SetBusStats.
// Instruments never influence placement decisions.
func (s *State) SetStats(st Stats) { s.stats = st }

// SetBusStats attaches bus-side instruments to every TDMA bus ledger of
// the state.
func (s *State) SetBusStats(st ttp.Stats) {
	for _, b := range s.buses {
		b.SetStats(st)
	}
}
