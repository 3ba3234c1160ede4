package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
)

// The paper's follow-up (Pop et al., CODES 2001) relaxes requirement (a):
// existing applications may be modified — remapped and rescheduled — at a
// cost capturing the re-validation and re-testing effort the change
// triggers. The design problem becomes: implement the current application
// so that the total modification cost is minimal (zero when the frozen
// design suffices), and among designs of equal cost the future-oriented
// objective C is minimal. SolveRelaxedContext implements that extension.

// ExistingApp pairs a frozen application with its modification cost.
type ExistingApp struct {
	App *model.Application
	// Cost of modifying (remapping/rescheduling) this application:
	// re-certification, re-testing, documentation effort. The unit is
	// arbitrary but must be consistent across applications.
	Cost float64
}

// RelaxedProblem is the CODES-2001 variant of the incremental mapping
// problem: existing applications carry modification costs and may be
// reimplemented if the current application cannot be placed otherwise.
type RelaxedProblem struct {
	Sys *model.System
	// Base is the as-built schedule containing every Existing
	// application in its shipped position. Unmodified applications keep
	// exactly these placements.
	Base     *sched.State
	Existing []ExistingApp // in arrival order
	Current  *model.Application
	Profile  *future.Profile
	Weights  metrics.Weights
}

// RelaxedSolution reports which applications were modified and the
// resulting design.
type RelaxedSolution struct {
	// Modified lists the applications that were remapped, in arrival
	// order; empty when the frozen design sufficed.
	Modified []model.AppID
	// Cost is the total modification cost paid.
	Cost float64
	// State is the complete final schedule (unmodified existing
	// applications keep their exact original schedule entries).
	State *sched.State
	// Report scores the final design against the future profile.
	Report  metrics.Report
	Elapsed time.Duration
	// Subsets counts how many modification subsets were evaluated.
	Subsets int
}

// RelaxedOptions tune SolveRelaxedContext. Zero-valued fields select the
// documented defaults.
type RelaxedOptions struct {
	// MH tunes the mapping heuristic used for the current application
	// (zero fields follow the MHOptions zero-value semantics).
	MH MHOptions
	// MaxSubsets bounds the number of modification subsets tried (0
	// selects 64). Subsets are tried in increasing total cost, so the
	// first feasible subset found is cost-minimal among those examined.
	MaxSubsets int
	// Parallelism is handed to the embedded Solve calls (0 uses one
	// worker per CPU).
	Parallelism int
	// Observer is handed to the embedded Solve calls (RelaxedSolution
	// reports how many modification subsets were tried). nil disables
	// observability.
	Observer *obs.Observer
}

// SolveRelaxedContext finds a minimum-modification-cost design: it
// enumerates subsets of existing applications in increasing total cost
// (the empty subset — the pure incremental case — first); for each
// subset it freezes the others, places the current application with the
// mapping heuristic, and then re-places the modified applications. The
// first subset that yields a fully valid design wins. Cancelling ctx
// aborts the subset scan with the context's error.
func SolveRelaxedContext(ctx context.Context, rp *RelaxedProblem, opts RelaxedOptions) (*RelaxedSolution, error) {
	start := time.Now()
	if opts.MaxSubsets == 0 {
		opts.MaxSubsets = 64
	}
	if err := rp.Profile.Validate(); err != nil {
		return nil, err
	}

	subsets := costOrderedSubsets(rp.Existing, opts.MaxSubsets)
	tried := 0
	var lastErr error
	for _, sub := range subsets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tried++
		sol, err := rp.trySubset(ctx, sub, opts)
		if err != nil {
			lastErr = err
			continue
		}
		sol.Elapsed = time.Since(start)
		sol.Subsets = tried
		return sol, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no modification subset evaluated")
	}
	return nil, fmt.Errorf("%w: even with modifications: %v", ErrUnschedulable, lastErr)
}

// trySubset keeps every existing application outside the subset in its
// shipped position (copied from Base), places the current application,
// then re-places the modified ones from scratch.
func (rp *RelaxedProblem) trySubset(ctx context.Context, modify map[model.AppID]bool, opts RelaxedOptions) (*RelaxedSolution, error) {
	st, err := sched.Restrict(rp.Base, rp.Sys, func(id model.AppID) bool { return !modify[id] })
	if err != nil {
		return nil, err
	}

	// The current application gets the full future-oriented treatment.
	p, err := NewProblem(rp.Sys, st, rp.Current, rp.Profile, rp.Weights)
	if err != nil {
		return nil, err
	}
	sol, err := Solve(ctx, p, Options{
		Strategy:    MHWith(opts.MH),
		Parallelism: opts.Parallelism,
		Observer:    opts.Observer,
	})
	if err != nil {
		return nil, err
	}
	st = sol.State

	// Modified applications are re-placed last: their old implementation
	// is discarded, which is exactly what "modification" means.
	var modified []model.AppID
	var cost float64
	for _, ex := range rp.Existing {
		if !modify[ex.App.ID] {
			continue
		}
		if _, err := st.MapApp(ex.App, sched.Hints{}); err != nil {
			return nil, fmt.Errorf("modified application %q no longer fits: %w", ex.App.Name, err)
		}
		modified = append(modified, ex.App.ID)
		cost += ex.Cost
	}

	return &RelaxedSolution{
		Modified: modified,
		Cost:     cost,
		State:    st,
		Report:   metrics.Evaluate(st, rp.Profile, rp.Weights),
	}, nil
}

// costOrderedSubsets enumerates subsets of the existing applications in
// increasing total modification cost, starting with the empty subset,
// capped at max entries. For more than 16 applications it falls back to
// cost-sorted prefixes (greedy).
func costOrderedSubsets(existing []ExistingApp, max int) []map[model.AppID]bool {
	n := len(existing)
	var subsets []map[model.AppID]bool
	if n <= 16 {
		type entry struct {
			mask int
			cost float64
			size int
		}
		entries := make([]entry, 0, 1<<n)
		for mask := 0; mask < 1<<n; mask++ {
			var c float64
			size := 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					c += existing[i].Cost
					size++
				}
			}
			entries = append(entries, entry{mask: mask, cost: c, size: size})
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].cost != entries[j].cost {
				return entries[i].cost < entries[j].cost
			}
			if entries[i].size != entries[j].size {
				return entries[i].size < entries[j].size
			}
			return entries[i].mask < entries[j].mask
		})
		for _, e := range entries {
			if len(subsets) >= max {
				break
			}
			sub := map[model.AppID]bool{}
			for i := 0; i < n; i++ {
				if e.mask&(1<<i) != 0 {
					sub[existing[i].App.ID] = true
				}
			}
			subsets = append(subsets, sub)
		}
		return subsets
	}
	// Greedy: cheapest-first prefixes.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return existing[order[a]].Cost < existing[order[b]].Cost })
	sub := map[model.AppID]bool{}
	subsets = append(subsets, map[model.AppID]bool{})
	for _, idx := range order {
		if len(subsets) >= max {
			break
		}
		next := make(map[model.AppID]bool, len(sub)+1)
		for k := range sub {
			next[k] = true
		}
		next[existing[idx].App.ID] = true
		sub = next
		subsets = append(subsets, next)
	}
	return subsets
}
