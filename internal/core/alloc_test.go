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

// measureEvaluateAllocs warms the memo with one design and reports the
// steady-state allocations of re-evaluating it (the strategy inner loop
// re-visits designs constantly, so the memo-hit path is the hot path).
func measureEvaluateAllocs(t *testing.T, observer *obs.Observer) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	p := allocTestProblem(t)
	eng := newEngine(p, Options{Parallelism: 1, Observer: observer})
	mapping, _, err := p.initial(sched.Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Evaluate(mapping, sched.Hints{}); !ok {
		t.Fatal("warm-up evaluation infeasible")
	}
	return testing.AllocsPerRun(100, func() {
		eng.Evaluate(mapping, sched.Hints{})
	})
}

// TestEvaluateHitPathZeroAllocs pins the "free when off" contract: with
// no observer attached, a memo-hit evaluation allocates nothing.
func TestEvaluateHitPathZeroAllocs(t *testing.T) {
	if allocs := measureEvaluateAllocs(t, nil); allocs != 0 {
		t.Fatalf("memo-hit Evaluate allocates %.1f objects/op without observer, want 0", allocs)
	}
}

// TestEvaluateHitPathZeroAllocsObserved goes further than the contract
// requires: even with a stats registry attached, the hit path stays
// allocation-free, because instruments are resolved once at engine
// construction and counter bumps are plain atomics.
func TestEvaluateHitPathZeroAllocsObserved(t *testing.T) {
	observer := &obs.Observer{Stats: obs.NewRegistry()}
	if allocs := measureEvaluateAllocs(t, observer); allocs != 0 {
		t.Fatalf("memo-hit Evaluate allocates %.1f objects/op with stats registry, want 0", allocs)
	}
}

// TestEvaluateMissPathIncrementalAllocs gates the allocation cost of a
// memo-miss evaluation (cache disabled, so every call applies, rescores
// and rolls back a transaction): the transaction keeps the job order,
// the busy sets insert in place and the evaluator's scratch is reused
// across calls, so a warm miss allocates nothing.
func TestEvaluateMissPathIncrementalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	p := allocTestProblem(t)
	eng := newEngine(p, Options{Parallelism: 1, CacheSize: -1})
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
	t.Logf("miss-path allocations per evaluation: %.1f", allocs)
	if allocs != 0 {
		t.Fatalf("memo-miss Evaluate allocates %.1f objects/op, want 0", allocs)
	}
}
