// Incremental: a product line evolving over four versions. Each version
// adds one application to the same 6-node TTP platform; once shipped, an
// application is frozen (remapping it would re-trigger validation of
// already-certified functions).
//
// Two design histories are simulated side by side:
//
//   - one where every increment is placed by the ad-hoc strategy (AH),
//     which optimizes nothing but the new application's finish times;
//   - one where every increment is placed by the paper's mapping
//     heuristic (MH), which also keeps slack large and periodically
//     distributed for whatever comes next.
//
// The histories diverge: by the time version 4 arrives, only one of them
// still has room for it.
//
// Run with: go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
)

func main() {
	cfg := gen.Default()
	cfg.Nodes = 6
	cfg.GraphMinProcs = 8
	cfg.GraphMaxProcs = 16
	cfg.TargetUtil = 0.72 // the platform fills up over the versions

	// Generate the four increments as one workload so every graph gets a
	// consistent period; then replay them version by version.
	g := gen.New(cfg, 2026)
	var apps []*model.Application
	var levels [][]int
	sizes := []int{60, 50, 50, 45}
	for i, n := range sizes {
		app, lv := g.Application(fmt.Sprintf("v%d", i+1), n)
		apps = append(apps, app)
		levels = append(levels, lv)
	}
	base, err := g.AssignPeriods(apps, levels)
	if err != nil {
		log.Fatal(err)
	}
	sys := &model.System{Arch: g.Architecture(), Apps: apps}
	if err := sys.Validate(); err != nil {
		log.Fatal(err)
	}
	prof := g.Profile(base)
	weights := metrics.DefaultWeights(prof)
	fmt.Printf("platform: %d nodes, base period %v, future profile Tmin=%v tneed=%v\n\n",
		cfg.Nodes, base, prof.Tmin, prof.TNeed)

	type track struct {
		name  string
		state *sched.State
		place func(p *core.Problem) (*core.Solution, error)
		dead  bool
	}
	mkState := func() *sched.State {
		st, err := sched.NewState(sys)
		if err != nil {
			log.Fatal(err)
		}
		return st
	}
	tracks := []*track{
		{name: "AH", state: mkState(), place: func(p *core.Problem) (*core.Solution, error) {
			return core.Solve(context.Background(), p, core.Options{Strategy: core.AH})
		}},
		{name: "MH", state: mkState(), place: func(p *core.Problem) (*core.Solution, error) {
			return core.Solve(context.Background(), p, core.Options{Strategy: core.MH})
		}},
	}

	for v, app := range apps {
		fmt.Printf("version %d: adding %q (%d processes)\n", v+1, app.Name, app.NumProcs())
		for _, tr := range tracks {
			if tr.dead {
				continue
			}
			p, err := core.NewProblem(sys, tr.state, app, prof, weights)
			if err != nil {
				log.Fatal(err)
			}
			sol, err := tr.place(p)
			if err != nil {
				fmt.Printf("  %s history: %q DOES NOT FIT — redesign of shipped applications required\n",
					tr.name, app.Name)
				tr.dead = true
				continue
			}
			tr.state = sol.State
			fmt.Printf("  %s history: placed, %v\n", tr.name, sol.Report)
		}
		fmt.Println()
	}

	// Version 5 is the future application the profile anticipated: a
	// fast sensing/actuation function running at the Tmin rate.
	futGen := gen.New(cfg, 77)
	futGen.StartIDsAt(1 << 20)
	fast := futGen.FutureApp("v5-fast-loop", prof, 20)
	fmt.Printf("version 5: adding %q (%d processes, fastest period %v)\n",
		fast.Name, fast.NumProcs(), prof.Tmin)
	for _, tr := range tracks {
		if tr.dead {
			continue
		}
		st := tr.state.Clone()
		if _, err := st.MapApp(fast, sched.Hints{}); err != nil {
			fmt.Printf("  %s history: DOES NOT FIT (%v)\n", tr.name, err)
			tr.dead = true
			continue
		}
		tr.state = st
		fmt.Printf("  %s history: placed\n", tr.name)
	}

	fmt.Println("\nsummary:")
	for _, tr := range tracks {
		if tr.dead {
			fmt.Printf("  %s: design process broke down — an increment could not be added\n", tr.name)
		} else {
			rep := metrics.Evaluate(tr.state, prof, weights)
			fmt.Printf("  %s: all versions shipped; final design %v\n", tr.name, rep)
		}
	}
}
