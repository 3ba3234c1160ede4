package sched

import (
	"incdes/internal/obs"
	"incdes/internal/ttp"
)

// Stats are the scheduler-side observability instruments a State
// reports into. The zero value (all nil) disables instrumentation; see
// package obs for the "free when off" contract.
type Stats struct {
	// ScheduleCalls counts ScheduleApp invocations and transactional
	// applies — one per design alternative the engine evaluates.
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
// the state; the single-bus form of BusState().SetStats generalized to
// multi-cluster architectures.
func (s *State) SetBusStats(st ttp.Stats) {
	for _, b := range s.buses {
		b.SetStats(st)
	}
}
