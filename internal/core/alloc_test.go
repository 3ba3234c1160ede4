package core

import (
	"testing"

	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
)

// allocTestProblem builds the smallest problem worth measuring by hand
// (this file is an internal test, so it cannot use internal/gen without
// creating an import cycle): two nodes, one frozen application already
// on the bus, and a two-process current application to map.
func allocTestProblem(t *testing.T) *Problem {
	t.Helper()
	b := model.NewBuilder()
	n0 := b.Node("n0")
	n1 := b.Node("n1")
	b.Bus([]model.NodeID{n0, n1}, []int{16, 16}, 1, 2)

	e := b.App("existing").Graph("GE", 200, 200)
	e1 := e.UniformProc("E1", 20)
	e2 := e.UniformProc("E2", 20)
	e.Msg(e1, e2, 4)

	c := b.App("current").Graph("GC", 200, 200)
	c1 := c.UniformProc("C1", 15)
	c2 := c.UniformProc("C2", 15)
	c.Msg(c1, c2, 4)

	sys := b.MustSystem()
	base, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.MapApp(sys.Apps[0], sched.Hints{}); err != nil {
		t.Fatal(err)
	}
	prof := &future.Profile{
		Tmin:       100,
		TNeed:      10,
		BNeedBytes: 8,
		WCET:       []future.Bin{{Size: 10, Prob: 1}},
		MsgBytes:   []future.Bin{{Size: 4, Prob: 1}},
	}
	p, err := NewProblem(sys, base, sys.Apps[1], prof, metrics.DefaultWeights(prof))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEvaluateZeroAllocs gates the allocation cost of the one evaluation
// path: every Evaluate applies, rescores and rolls back a transaction on
// a worker's base copy. The transaction keeps the job order, the busy
// sets insert in place and the evaluator's scratch is reused across
// calls, so a warm evaluation allocates nothing. With a stats registry
// attached it still allocates nothing, because instruments are resolved
// once at engine construction and counter bumps are plain atomics —
// observability is free on the hot path.
func TestEvaluateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	for _, tc := range []struct {
		name     string
		observer *obs.Observer
	}{
		{"unobserved", nil},
		{"observed", &obs.Observer{Stats: obs.NewRegistry()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := allocTestProblem(t)
			eng := newEngine(p, Options{Parallelism: 1, Observer: tc.observer})
			mapping, _, err := p.initial(sched.Hints{})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := eng.Evaluate(mapping, sched.Hints{}); !ok {
				t.Fatal("warm-up evaluation infeasible")
			}
			allocs := testing.AllocsPerRun(200, func() {
				eng.Evaluate(mapping, sched.Hints{})
			})
			if allocs != 0 {
				t.Fatalf("warm Evaluate allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
