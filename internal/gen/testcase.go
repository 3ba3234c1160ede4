package gen

import (
	"context"
	"fmt"
	"math"

	"incdes/internal/core"
	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// AssignPeriods derives the base period from the target utilization and
// stamps every graph with period = level * base and deadline = period.
// It returns the base period, which is always a multiple of the TDMA
// round and large enough for the largest WCET.
func (g *Generator) AssignPeriods(apps []*model.Application, levels [][]int) tm.Time {
	// Utilization at base period P: sum over graphs of avg work / (level*P*N).
	var workPerBase float64
	var maxWCET tm.Time
	for ai, app := range apps {
		for gi, gr := range app.Graphs {
			var sum tm.Time
			for _, p := range gr.Procs {
				sum += p.AvgWCET()
				maxWCET = tm.Max(maxWCET, p.MaxWCET())
			}
			workPerBase += float64(sum) / float64(levels[ai][gi])
		}
	}
	base := tm.Time(math.Ceil(workPerBase / (float64(g.totalNodes()) * g.cfg.TargetUtil)))
	base = tm.Max(base, maxWCET)
	// On multi-cluster platforms the base period must be a multiple of
	// every bus's round so the hyperperiod stays a whole number of rounds
	// on each bus; with one bus this is the bus's round, as before.
	rl := g.arch.Buses[0].RoundLen()
	for _, b := range g.arch.Buses[1:] {
		rl = tm.LCM(rl, b.RoundLen())
	}
	base = tm.Max(base, 2*rl)
	// The base period must be a whole number of TDMA rounds, and a whole
	// number of future Tmin windows (Tmin = base / FutureTminDen) so the
	// periodic slack criterion slices the horizon exactly.
	quantum := rl
	if den := g.cfg.FutureTminDen; den > 1 {
		quantum = rl * tm.Time(den)
	}
	if rem := base % quantum; rem != 0 {
		base += quantum - rem
	}
	for ai, app := range apps {
		for gi, gr := range app.Graphs {
			gr.Period = tm.Time(levels[ai][gi]) * base
			gr.Deadline = gr.Period
		}
	}
	return base
}

// drawSize draws one size from a discrete distribution.
func (g *Generator) drawSize(bins []future.Bin) int64 {
	u := g.rng.Float64()
	var cum float64
	for _, b := range bins {
		cum += b.Prob
		if u < cum {
			return b.Size
		}
	}
	return bins[len(bins)-1].Size
}

// FutureApp samples a concrete member of the future-application family: a
// layered DAG application of nProcs processes whose WCETs and message
// sizes follow the profile's distributions. The family's most demanding
// member has period Tmin; a concrete member contains one fast graph at
// period Tmin (the part the periodic-slack criterion protects) while its
// remaining graphs run at the base period Tmin * FutureTminDen. This is
// what experiment E3 maps onto the residual system.
func (g *Generator) FutureApp(name string, prof *future.Profile, nProcs int) *model.Application {
	app := &model.Application{ID: g.nextApp, Name: name}
	g.nextApp++
	basePeriod := prof.Tmin
	if den := g.cfg.FutureTminDen; den > 1 {
		basePeriod = prof.Tmin * tm.Time(den)
	}
	remaining := nProcs
	for i := 0; remaining > 0; i++ {
		n := g.cfg.GraphMinProcs
		if i == 0 {
			// The fast Tmin-period graph is kept small and shallow: fast
			// control loops are; and a graph whose critical path spans
			// several TDMA rounds could never close inside Tmin anyway.
			n = 4
			if n > remaining {
				n = remaining
			}
		} else {
			if g.cfg.GraphMaxProcs > g.cfg.GraphMinProcs {
				n += g.rng.Intn(g.cfg.GraphMaxProcs - g.cfg.GraphMinProcs + 1)
			}
			if n > remaining {
				n = remaining
			}
		}
		gr := g.graph(fmt.Sprintf("%s.G%d", name, i), n)
		if i == 0 {
			gr.Period = prof.Tmin
			gr.Deadline = prof.Tmin
		} else {
			gr.Period = basePeriod
			gr.Deadline = basePeriod
		}
		// Redraw process WCETs from the profile's distribution (keeping
		// the heterogeneity structure) and message sizes likewise. The
		// per-node factors are drawn in node order so a seed fixes them.
		for _, p := range gr.Procs {
			base := tm.Time(g.drawSize(prof.WCET))
			for _, n := range p.AllowedNodes() {
				f := 1 + g.cfg.HeteroSpread*(2*g.rng.Float64()-1)
				w := tm.Time(math.Round(float64(base) * f))
				if w < 1 {
					w = 1
				}
				p.WCET[n] = w
			}
		}
		for _, m := range gr.Msgs {
			m.Bytes = int(g.drawSize(prof.MsgBytes))
		}
		app.Graphs = append(app.Graphs, gr)
		remaining -= n
	}
	return app
}

// Profile builds the future-application characterization for a test case:
// Tmin is the base period divided by FutureTminDen (future applications
// include functions faster than anything currently running), TNeed is
// FutureUtil of the total processor capacity per Tmin, BNeedBytes is
// FutureBusFrac of the bus capacity per Tmin, and the size distributions
// are the paper's histograms.
func (g *Generator) Profile(basePeriod tm.Time) *future.Profile {
	tmin := basePeriod
	if den := g.cfg.FutureTminDen; den > 1 {
		tmin = basePeriod / tm.Time(den)
	}
	tneed := tm.Time(g.cfg.FutureUtil * float64(g.totalNodes()) * float64(tmin))
	var bneed int64
	if len(g.arch.Buses) == 1 {
		// Keep the historical single-bus arithmetic bit-for-bit.
		roundsPerTmin := float64(tmin) / float64(g.arch.Buses[0].RoundLen())
		var bytesPerRound int64
		for _, b := range g.arch.Buses[0].SlotBytes {
			bytesPerRound += int64(b)
		}
		bneed = int64(g.cfg.FutureBusFrac * roundsPerTmin * float64(bytesPerRound))
	} else {
		// Aggregate capacity per Tmin over every bus.
		var perTmin float64
		for _, bus := range g.arch.Buses {
			var bytesPerRound int64
			for _, b := range bus.SlotBytes {
				bytesPerRound += int64(b)
			}
			perTmin += float64(tmin) / float64(bus.RoundLen()) * float64(bytesPerRound)
		}
		bneed = int64(g.cfg.FutureBusFrac * perTmin)
	}
	return future.PaperProfile(tmin, tneed, bneed)
}

// ProfileForSystem derives a future-application profile for an existing
// system (e.g. one loaded from JSON) using the configuration's future
// parameters: the base period is taken as the smallest graph period.
func ProfileForSystem(cfg Config, sys *model.System) *future.Profile {
	base := tm.Infinity
	for _, a := range sys.Apps {
		for _, gr := range a.Graphs {
			base = tm.Min(base, gr.Period)
		}
	}
	g := &Generator{cfg: cfg, arch: sys.Arch}
	return g.Profile(base)
}

// TestCase is one complete input to the incremental mapping problem,
// mirroring the paper's experimental setup.
type TestCase struct {
	Sys        *model.System        // architecture + existing + current
	Existing   []*model.Application // frozen applications
	Current    *model.Application   // the application to map
	Base       *sched.State         // existing applications scheduled
	Profile    *future.Profile      // future family characterization
	BasePeriod tm.Time
	Seed       int64 // the seed that actually produced the case
}

// MakeTestCase generates a schedulable test case: existingProcs processes
// of existing applications (split into chunks of ~100 processes per
// application) already mapped and scheduled by the mapping heuristic, one
// application per earlier design increment (see placeHistory), plus a
// current application of currentProcs processes that is verified to admit
// at least one valid mapping. Unschedulable draws are retried with
// derived seeds; after maxTries the last error is returned.
func MakeTestCase(cfg Config, seed int64, existingProcs, currentProcs int) (*TestCase, error) {
	const maxTries = 25
	var lastErr error
	for try := 0; try < maxTries; try++ {
		s := seed + int64(try)*1_000_003
		tc, err := makeOnce(cfg, s, existingProcs, currentProcs)
		if err == nil {
			return tc, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("gen: no schedulable test case after %d tries: %w", maxTries, lastErr)
}

// scatterHints draws start-offset hints that spread an application's
// processes over their periods instead of packing them ASAP. They seed
// the mapping heuristic that places each existing application: it was
// itself the "current" application of an earlier design increment, so
// its slack is distributed in time rather than bunched at the period end
// (an ASAP-packed history would leave no strategy any periodic slack to
// protect).
// The offset of each process is bounded by its remaining partial critical
// path, so downstream chains still meet the deadline.
func (g *Generator) scatterHints(app *model.Application) sched.Hints {
	hints := sched.Hints{}
	for _, gr := range app.Graphs {
		prio := sched.Priorities(gr, g.arch.Buses[0])
		for _, p := range gr.Procs {
			// Keep a full TDMA round of margin beyond the critical-path
			// estimate: a message can wait up to a round for its slot.
			span := gr.Deadline - prio[p.ID] - g.arch.Buses[0].RoundLen()
			if span <= 0 {
				continue
			}
			off := tm.Time(g.rng.Int63n(int64(span)))
			if off > 0 {
				hints = hints.SetProcStart(p.ID, off)
			}
		}
	}
	return hints
}

func makeOnce(cfg Config, seed int64, existingProcs, currentProcs int) (*TestCase, error) {
	g := New(cfg, seed)

	var apps []*model.Application
	var levels [][]int
	var existing []*model.Application
	remaining := existingProcs
	for i := 0; remaining > 0; i++ {
		n := 100
		if n > remaining {
			n = remaining
		}
		app, lv := g.Application(fmt.Sprintf("existing%d", i), n)
		apps = append(apps, app)
		levels = append(levels, lv)
		existing = append(existing, app)
		remaining -= n
	}
	current, lv := g.Application("current", currentProcs)
	apps = append(apps, current)
	levels = append(levels, lv)

	base := g.AssignPeriods(apps, levels)
	sys := &model.System{Arch: g.Architecture(), Apps: apps}
	if err := sys.Validate(); err != nil {
		return nil, err
	}

	st, err := sched.NewState(sys)
	if err != nil {
		return nil, err
	}
	prof := g.Profile(base)
	st, err = g.placeHistory(sys, st, existing, prof)
	if err != nil {
		return nil, err
	}
	// The current application must admit at least one valid design.
	if _, err := st.Clone().MapApp(current, sched.Hints{}); err != nil {
		return nil, fmt.Errorf("gen: current application unschedulable: %w", err)
	}

	return &TestCase{
		Sys:        sys,
		Existing:   existing,
		Current:    current,
		Base:       st,
		Profile:    prof,
		BasePeriod: base,
		Seed:       seed,
	}, nil
}

// placeHistory schedules the existing applications onto st and returns
// the resulting state. Each application is mapped by the paper's mapping
// heuristic in arrival order — the system really is the product of
// successive design increments — and the state is the solution's.
func (g *Generator) placeHistory(sys *model.System, st *sched.State,
	existing []*model.Application, prof *future.Profile) (*sched.State, error) {

	for _, app := range existing {
		p, err := core.NewProblem(sys, st, app, prof, metrics.DefaultWeights(prof))
		if err != nil {
			return nil, err
		}
		// A reduced-budget MH seeded with spread-out placements: the
		// initial mapping alone would pack everything ASAP, which no
		// slack-conscious designer would have shipped; the seed hints
		// start from a distributed layout and the heuristic polishes
		// the periodic-slack structure from there. The history only
		// has to be plausible, not optimal, and test-case generation
		// must stay fast.
		sol, err := core.Solve(context.Background(), p, core.Options{
			Strategy: core.MHWith(core.MHOptions{
				MaxIterations:  8,
				ProcCandidates: 3,
				TargetsPerNode: 1,
				MsgCandidates:  2,
				SeedHints:      g.scatterHints(app),
			}),
			Parallelism: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("gen: existing application %q unschedulable: %w", app.Name, err)
		}
		st = sol.State
	}
	return st, nil
}
