package export_test

import (
	"fmt"
	"log"

	"incdes/internal/export"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// ExampleBuild turns a finished schedule into dispatch tables and a MEDL
// and verifies them against the system.
func ExampleBuild() {
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2)
	g := b.App("demo").Graph("G", 100, 100)
	p1 := g.Proc("P1", map[model.NodeID]tm.Time{n0: 10})
	p2 := g.Proc("P2", map[model.NodeID]tm.Time{n1: 15})
	g.Msg(p1, p2, 4)
	sys := b.MustSystem()

	st, err := sched.NewState(sys)
	if err != nil {
		log.Fatal(err)
	}
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p1: n0, p2: n1}, sched.Hints{}); err != nil {
		log.Fatal(err)
	}
	design, err := export.Build(st)
	if err != nil {
		log.Fatal(err)
	}
	for _, nt := range design.Nodes {
		for _, e := range nt.Entries {
			fmt.Printf("N%d runs process %d from %v to %v\n", nt.Node, e.Proc, e.Start, e.End)
		}
	}
	for _, e := range design.MEDL {
		fmt.Printf("round %d slot %d carries message %d: %dB from %v to %v\n",
			e.Round, e.Slot, e.Msg, e.Bytes, e.Start, e.End)
	}
	fmt.Printf("verification: %d problems\n", len(export.Check(design, sys, sys.Apps...)))
	// Output:
	// N0 runs process 0 from 0tu to 10tu
	// N1 runs process 1 from 30tu to 45tu
	// round 1 slot 0 carries message 0: 4B from 20tu to 30tu
	// verification: 0 problems
}
