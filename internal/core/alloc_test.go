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
// on the bus, and a three-process current application to map, C1
// sending to C2, and C3 on its own.
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
	c.UniformProc("C3", 10)

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
// path: every Evaluate re-places the candidate over the design the
// worker's open transaction holds and rescores it. The transaction keeps
// the job order and its placement record, the busy sets insert in place
// and the evaluator's scratch is reused across calls, so a warm
// evaluation allocates nothing. Two cases: one design evaluated again,
// which the held design answers without placing a job, and two moves of
// different processes over one incumbent, alternating, so that every
// call undoes and re-places a suffix of the job order. With a stats
// registry attached it still allocates nothing, because instruments are
// resolved once at engine construction and counter bumps are plain
// atomics — observability is free on the hot path.
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
			d, err := eng.NewDesign(mapping, sched.Hints{})
			if err != nil {
				t.Fatal(err)
			}
			procs := p.Current.Graphs[0].Procs
			c2, c3 := procs[1].ID, procs[2].ID
			moves := [2]sched.Move{
				{Kind: sched.MoveProc, Proc: c2, Node: mapping[c2], Start: 120},
				{Kind: sched.MoveProc, Proc: c3, Node: mapping[c3], Start: 150},
			}
			for _, mv := range append(moves[:], sched.Move{}) {
				if _, ok := eng.Evaluate(d, mv); !ok {
					t.Fatalf("warm-up evaluation of %+v infeasible", mv)
				}
			}
			jobs := tc.observer.Registry().Counter(obs.CtrSchedJobs)
			occs := int64(p.Base.Horizon() / p.Current.Graphs[0].Period)
			for _, c := range []struct {
				name string
				eval func(i int)
				jobs int64 // jobs placed per call, when observed
			}{
				{"same design", func(int) { eng.Evaluate(d, sched.Move{}) }, 0},
				// C1's jobs come first, then C2's and C3's: each call
				// re-places every job of C2 and C3 and keeps C1's.
				{"alternating moves", func(i int) { eng.Evaluate(d, moves[i%2]) }, 2 * occs},
			} {
				i := 0
				before := jobs.Load()
				allocs := testing.AllocsPerRun(200, func() {
					c.eval(i)
					i++
				})
				if allocs != 0 {
					t.Errorf("%s: warm Evaluate allocates %.1f objects/op, want 0", c.name, allocs)
				}
				if tc.observer != nil {
					if got := (jobs.Load() - before) / int64(i); got != c.jobs {
						t.Errorf("%s: %d jobs placed per call, want %d", c.name, got, c.jobs)
					}
				}
			}
		})
	}
}
