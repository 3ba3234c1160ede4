package core

import "fmt"

// Unit is one independently executable piece of a solve: a whole
// strategy or one SA restart chain. The local engine and the cluster
// coordinator execute the same units and combine them with Reduce.
type Unit struct {
	Lane  int    // portfolio lane (0 outside a portfolio)
	Name  string // the lane's strategy name: "AH", "MH", "SA", ...
	Chain int    // global SA chain index: ChainOffset + local chain
}

// UnitPlan is a strategy's ordered units: lanes in lane order, each
// lane's SA chains in chain order.
type UnitPlan struct {
	Units     []Unit
	portfolio bool
}

// Plan splits a strategy into its work units: AH, MH and custom
// strategies run whole, SA runs one unit per restart chain, and a
// portfolio runs its lanes in order with an SA lane expanded into its
// chains.
func Plan(s Strategy) UnitPlan {
	var plan UnitPlan
	lanes := []Strategy{s}
	if p, ok := s.(portfolioStrategy); ok {
		lanes, plan.portfolio = p.opts.lanes(), true
	}
	for i, lane := range lanes {
		chains, offset := 1, 0
		if sa, ok := lane.(saStrategy); ok {
			o := sa.opts.normalized(0)
			chains, offset = o.Restarts, o.ChainOffset
		}
		for c := 0; c < chains; c++ {
			plan.Units = append(plan.Units, Unit{Lane: i, Name: lane.Name(), Chain: offset + c})
		}
	}
	return plan
}

// Outcome is what one unit reports to Reduce. A context error in Err
// marks a unit that was cancelled before it produced a solution; such
// units are skipped, never winners.
type Outcome struct {
	Objective   float64
	Evaluations int
	Interrupted bool
	Err         error
}

// Reduce combines the outcomes of a plan's units (outs[i] belongs to
// p.Units[i]) into the winning unit index, the combined outcome and the
// deterministic error. Each lane folds its units by the chain rule, then
// a portfolio folds its lanes by the lane rule; both depend only on unit
// order, never on which executor ran a unit or when. The local racer
// folds its lanes by the same lane rule, so a dispatched portfolio and a
// local one agree.
func Reduce(p UnitPlan, outs []Outcome) (int, Outcome, error) {
	var names []string
	var lanes []Outcome
	var winners []int
	for i := 0; i < len(p.Units); {
		j := i + 1
		for j < len(p.Units) && p.Units[j].Lane == p.Units[i].Lane {
			j++
		}
		best, o := reduceChains(outs[i:j])
		names, lanes, winners = append(names, p.Units[i].Name), append(lanes, o), append(winners, i+best)
		i = j
	}
	lane := 0
	if p.portfolio {
		var err error
		if lane, err = reduceLanes(names, lanes); err != nil {
			return -1, Outcome{}, err
		}
	}
	if err := lanes[lane].Err; err != nil {
		return -1, Outcome{}, err
	}
	return winners[lane], lanes[lane], nil
}

// pick is the selection both rules share. The first non-context error
// in order fails the fold and is returned with its index. Otherwise the
// winner is the strictly lowest objective, ties to the lowest index,
// skipping context errors; if every outcome was skipped, pick returns -1
// and the first context error.
func pick(outs []Outcome) (int, error) {
	best := -1
	var skipped error
	for i, o := range outs {
		switch {
		case o.Err == nil:
			if best < 0 || o.Objective < outs[best].Objective {
				best = i
			}
		case !isCtxErr(o.Err):
			return i, o.Err
		case skipped == nil:
			skipped = o.Err
		}
	}
	if best < 0 {
		return -1, skipped
	}
	return best, nil
}

// reduceChains is the chain rule for the restart chains of one lane (a
// whole unit is a lane of one chain): pick's winner, a first chain error
// returned unwrapped in the outcome's Err, Interrupted ORed, and the
// evaluations counted as 1 + Σ(eᵢ − 1) — every chain counts the shared
// initial evaluation, so the total does not depend on how the chains
// were grouped onto executors.
func reduceChains(outs []Outcome) (int, Outcome) {
	best, err := pick(outs)
	if err != nil {
		return -1, Outcome{Err: err}
	}
	sum := Outcome{Objective: outs[best].Objective, Evaluations: 1}
	for _, o := range outs {
		if o.Err == nil {
			sum.Evaluations += o.Evaluations - 1
			sum.Interrupted = sum.Interrupted || o.Interrupted
		}
	}
	return best, sum
}

// decided returns how many lanes decide a portfolio race: z+1 when lane
// z is the first to score 0 and lanes 0..z all completed naturally (no
// error, not interrupted), else every lane. No lane above z can beat
// lane z's (objective, lane), so those lanes are cut: whatever they
// report, a solution, an error or nothing yet, leaves the result as it
// is. z depends only on the lanes' outcomes, never on when they arrived.
func decided(lanes []Outcome) int {
	for z, o := range lanes {
		if o.Err != nil || o.Interrupted {
			break
		}
		if o.Objective == 0 {
			return z + 1
		}
	}
	return len(lanes)
}

// reduceLanes is the portfolio's lane rule over the lanes that decide
// the race (decided): lane errors are pure functions of the problem, so
// the lowest-index non-context lane error beats any solution and is
// wrapped with the lane index and name; otherwise the lowest
// (objective, lane) wins.
func reduceLanes(names []string, outs []Outcome) (int, error) {
	lane, err := pick(outs[:decided(outs)])
	if err != nil && !isCtxErr(err) {
		return -1, fmt.Errorf("core: portfolio lane %d (%s): %w", lane, names[lane], err)
	}
	return lane, err
}
