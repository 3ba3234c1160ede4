// Quickstart: the paper's "classic mapping and scheduling" example.
//
// Two nodes hang off a TTP bus whose round is (S1, S0) — node 1 owns the
// first slot, node 0 the second. A diamond-shaped process graph
// P1 -> {P2, P3} -> P4 with messages m1..m4 is mapped and statically
// scheduled; messages between processes on different nodes ride in the
// sender node's TDMA slot.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"incdes/internal/core"
	"incdes/internal/export"
	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/textplot"
	"incdes/internal/tm"
)

func main() {
	// Architecture: two nodes; TDMA slot order (S1, S0), 8-byte slots,
	// 2 tu per byte, 2 tu frame overhead -> 18 tu slots, 36 tu round.
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n1, n0}, []int{8, 8}, 2, 2)

	// One application: the diamond graph, period and deadline 360 tu.
	app := b.App("diamond")
	g := app.Graph("G1", 360, 360)
	p1 := g.Proc("P1", map[model.NodeID]tm.Time{n0: 20, n1: 30})
	p2 := g.Proc("P2", map[model.NodeID]tm.Time{n0: 40, n1: 30})
	p3 := g.Proc("P3", map[model.NodeID]tm.Time{n0: 30, n1: 25})
	p4 := g.Proc("P4", map[model.NodeID]tm.Time{n0: 20, n1: 20})
	g.Msg(p1, p2, 4) // m1
	g.Msg(p1, p3, 4) // m2
	g.Msg(p2, p4, 4) // m3
	g.Msg(p3, p4, 4) // m4

	sys, err := b.System()
	if err != nil {
		log.Fatal(err)
	}

	// Nothing exists yet: the base schedule is empty.
	base, err := sched.NewState(sys)
	if err != nil {
		log.Fatal(err)
	}

	// Future applications: small fast functions, characterized per the
	// paper — smallest period 90 tu, 20 tu of processor time and 8 bytes
	// of bus capacity needed inside every such period.
	prof := future.PaperProfile(90, 20, 8)
	prof.WCET = []future.Bin{{Size: 10, Prob: 0.5}, {Size: 20, Prob: 0.5}}

	problem, err := core.NewProblem(sys, base, app.Application(), prof, metrics.DefaultWeights(prof))
	if err != nil {
		log.Fatal(err)
	}

	sol, err := core.Solve(context.Background(), problem, core.Options{Strategy: core.MH})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("mapping (process -> node):")
	for _, p := range []model.ProcID{p1, p2, p3, p4} {
		fmt.Printf("  P%d -> N%d\n", p+1, sol.Mapping[p])
	}
	fmt.Println("\nschedule:")
	for _, e := range sol.State.ProcEntries() {
		fmt.Printf("  P%d occ %d on N%d: [%v, %v)\n", e.Proc+1, e.Occ, e.Node, e.Start, e.End)
	}
	for _, m := range sol.State.MsgEntries() {
		fmt.Printf("  m%d occ %d: slot %d round %d, arrives %v\n", m.Msg+1, m.Occ, m.Slot, m.Round, m.Arrive)
	}

	fmt.Println("\nGantt (A = diamond application):")
	fmt.Print(textplot.Gantt(sol.State, 72))

	fmt.Printf("\ndesign metrics: %v\n", sol.Report)

	// Export the bus side of the design as a TTP message descriptor list.
	design, err := export.Build(sol.State)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMEDL:")
	for _, e := range design.MEDL {
		fmt.Printf("  round %2d slot %d offset %dB: m%d (%dB), on air [%v, %v)\n",
			e.Round, e.Slot, e.Offset, e.Msg+1, e.Bytes, e.Start, e.End)
	}
}
