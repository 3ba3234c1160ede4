package core_test

import (
	"context"
	"fmt"

	"incdes/internal/core"
	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// ExampleSolve_mappingHeuristic maps a two-process application onto a
// two-node system while protecting periodic slack for a future
// application.
func ExampleSolve_mappingHeuristic() {
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2)
	app := b.App("current")
	g := app.Graph("loop", 100, 100)
	p1 := g.Proc("sense", map[model.NodeID]tm.Time{n0: 10, n1: 12})
	p2 := g.Proc("act", map[model.NodeID]tm.Time{n0: 14, n1: 10})
	g.Msg(p1, p2, 4)
	sys := b.MustSystem()

	base, _ := sched.NewState(sys)
	prof := future.PaperProfile(50, 20, 8)
	prof.WCET = []future.Bin{{Size: 10, Prob: 0.5}, {Size: 20, Prob: 0.5}}

	problem, err := core.NewProblem(sys, base, app.Application(), prof, metrics.DefaultWeights(prof))
	if err != nil {
		fmt.Println("problem:", err)
		return
	}
	sol, err := core.Solve(context.Background(), problem, core.Options{Strategy: core.MH, Parallelism: 1})
	if err != nil {
		fmt.Println("mapping:", err)
		return
	}
	fmt.Printf("sense on N%d, act on N%d, objective %.0f\n",
		sol.Mapping[p1], sol.Mapping[p2], sol.Report.Objective)
	// Output:
	// sense on N0, act on N0, objective 0
}

// ExampleSolve_adHoc shows the baseline strategy on the same problem
// shape.
func ExampleSolve_adHoc() {
	b := model.NewBuilder()
	n0 := b.Node("N0")
	b.Bus([]model.NodeID{n0}, []int{8}, 1, 2)
	app := b.App("current")
	g := app.Graph("task", 100, 100)
	g.Proc("work", map[model.NodeID]tm.Time{n0: 25})
	sys := b.MustSystem()

	base, _ := sched.NewState(sys)
	prof := future.PaperProfile(100, 10, 4)
	prof.WCET = []future.Bin{{Size: 10, Prob: 1}}

	problem, _ := core.NewProblem(sys, base, app.Application(), prof, metrics.DefaultWeights(prof))
	sol, _ := core.Solve(context.Background(), problem, core.Options{Strategy: core.AH, Parallelism: 1})
	e := sol.State.ProcEntries()[0]
	fmt.Printf("work runs [%v, %v) on N%d\n", e.Start, e.End, e.Node)
	// Output:
	// work runs [0tu, 25tu) on N0
}
