package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"incdes/internal/core"

	"incdes/internal/export"
	"incdes/internal/future"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// testProblem builds a small generated incremental-design instance.
func testProblem(t *testing.T, seed int64, existing, current int) *core.Problem {
	t.Helper()
	cfg := gen.Default()
	cfg.Nodes = 5
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 12
	tc, err := gen.MakeTestCase(cfg, seed, existing, current)
	if err != nil {
		t.Fatalf("MakeTestCase: %v", err)
	}
	p, err := core.NewProblem(tc.Sys, tc.Base, tc.Current, tc.Profile, metrics.DefaultWeights(tc.Profile))
	if err != nil {
		t.Fatalf("core.NewProblem: %v", err)
	}
	return p
}

func allApps(p *core.Problem) []*model.Application { return p.Sys.Apps }

// checkSchedule exports st as a deployable design and checks it against
// st's system for the given applications, returning the first problem.
func checkSchedule(st *sched.State, apps ...*model.Application) error {
	d, err := export.Build(st)
	if err != nil {
		return err
	}
	if errs := export.Check(d, st.System(), apps...); len(errs) != 0 {
		return fmt.Errorf("%d violations, first: %s", len(errs), errs[0])
	}
	return nil
}

// solveSerial runs Solve with one worker and returns its error, for tests
// that assert on failures as well as on solutions.
func solveSerial(p *core.Problem, strat core.Strategy) (*core.Solution, error) {
	return core.Solve(context.Background(), p, core.Options{Strategy: strat, Parallelism: 1})
}

// serialSA is a single-chain annealer with the given seed and length.
func serialSA(seed int64, iterations int) core.Strategy {
	return core.SAWith(core.SAOptions{Seed: seed, Iterations: iterations, Restarts: 1})
}

func TestAdHocProducesValidSchedule(t *testing.T) {
	p := testProblem(t, 1, 50, 25)
	sol, err := solveSerial(p, core.AH)
	if err != nil {
		t.Fatalf("AH: %v", err)
	}
	if sol.Strategy != "AH" || sol.Evaluations != 1 {
		t.Errorf("solution meta = %q/%d", sol.Strategy, sol.Evaluations)
	}
	if err := checkSchedule(sol.State, allApps(p)...); err != nil {
		t.Fatalf("AH schedule invalid: %v", err)
	}
	if sol.Report.Objective < 0 {
		t.Errorf("objective = %v", sol.Report.Objective)
	}
}

func TestExistingApplicationsUntouched(t *testing.T) {
	p := testProblem(t, 2, 50, 25)
	baseEntries := append([]sched.ProcEntry(nil), p.Base.ProcEntries()...)
	baseMsgs := append([]sched.MsgEntry(nil), p.Base.MsgEntries()...)

	for name, strat := range map[string]core.Strategy{
		"AH": core.AH,
		"MH": core.MHWith(core.MHOptions{MaxIterations: 3}),
		"SA": serialSA(1, 100),
	} {
		sol, err := solveSerial(p, strat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := sol.State.ProcEntries()[:len(baseEntries)]
		if !reflect.DeepEqual(got, baseEntries) {
			t.Errorf("%s modified existing process entries", name)
		}
		gotMsgs := sol.State.MsgEntries()[:len(baseMsgs)]
		if !reflect.DeepEqual(gotMsgs, baseMsgs) {
			t.Errorf("%s modified existing message entries", name)
		}
		// And the original base state itself must be untouched.
		if !reflect.DeepEqual(p.Base.ProcEntries(), baseEntries) {
			t.Fatalf("%s mutated the frozen base state", name)
		}
	}
}

func TestMappingHeuristicImprovesObjective(t *testing.T) {
	improved := 0
	for seed := int64(1); seed <= 5; seed++ {
		p := testProblem(t, seed*100, 60, 30)
		ah, err := solveSerial(p, core.AH)
		if err != nil {
			t.Fatalf("seed %d AH: %v", seed, err)
		}
		mh, err := solveSerial(p, core.MHWith(core.MHOptions{}))
		if err != nil {
			t.Fatalf("seed %d MH: %v", seed, err)
		}
		if mh.Report.Objective > ah.Report.Objective+1e-9 {
			t.Errorf("seed %d: MH objective %v worse than AH %v",
				seed, mh.Report.Objective, ah.Report.Objective)
		}
		if mh.Report.Objective < ah.Report.Objective-1e-9 {
			improved++
		}
		if err := checkSchedule(mh.State, allApps(p)...); err != nil {
			t.Fatalf("seed %d: MH schedule invalid: %v", seed, err)
		}
		if mh.Evaluations <= 1 {
			t.Errorf("seed %d: MH examined only %d alternatives", seed, mh.Evaluations)
		}
	}
	if improved == 0 {
		t.Error("MH never improved on AH across 5 seeds; heuristic appears inert")
	}
}

func TestAnnealImprovesObjective(t *testing.T) {
	p := testProblem(t, 7, 60, 30)
	ah, err := solveSerial(p, core.AH)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := solveSerial(p, serialSA(3, 400))
	if err != nil {
		t.Fatalf("SA: %v", err)
	}
	if sa.Report.Objective > ah.Report.Objective+1e-9 {
		t.Errorf("SA objective %v worse than its own starting point %v",
			sa.Report.Objective, ah.Report.Objective)
	}
	if err := checkSchedule(sa.State, allApps(p)...); err != nil {
		t.Fatalf("SA schedule invalid: %v", err)
	}
	if sa.Evaluations != 401 {
		t.Errorf("SA evaluations = %d, want 401", sa.Evaluations)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	p := testProblem(t, 8, 40, 20)
	a, err := solveSerial(p, serialSA(5, 150))
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveSerial(p, serialSA(5, 150))
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Objective != b.Report.Objective {
		t.Errorf("same seed, different objectives: %v vs %v", a.Report.Objective, b.Report.Objective)
	}
}

func TestMHOptionsAblations(t *testing.T) {
	p := testProblem(t, 9, 40, 20)
	noMsg, err := solveSerial(p, core.MHWith(core.MHOptions{DisableMsgMoves: true, MaxIterations: 5}))
	if err != nil {
		t.Fatalf("MH without message moves: %v", err)
	}
	random, err := solveSerial(p, core.MHWith(core.MHOptions{RandomCandidates: true, MaxIterations: 5}))
	if err != nil {
		t.Fatalf("MH with random candidates: %v", err)
	}
	for _, sol := range []*core.Solution{noMsg, random} {
		if err := checkSchedule(sol.State, allApps(p)...); err != nil {
			t.Fatalf("ablated MH invalid: %v", err)
		}
	}
}

func TestNewProblemValidation(t *testing.T) {
	p := testProblem(t, 10, 40, 20)

	// Current app not in the system.
	stranger := &model.Application{ID: 999, Name: "stranger",
		Graphs: []*model.Graph{{ID: 999, Period: 100, Deadline: 100,
			Procs: []*model.Process{{ID: 9999, WCET: map[model.NodeID]tm.Time{0: 10}}}}}}
	if _, err := core.NewProblem(p.Sys, p.Base, stranger, p.Profile, p.Weights); err == nil {
		t.Error("foreign application accepted")
	}

	// Current app already scheduled in base.
	st := p.Base.Clone()
	if _, err := st.MapApp(p.Current, sched.Hints{}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewProblem(p.Sys, st, p.Current, p.Profile, p.Weights); err == nil {
		t.Error("already-scheduled current application accepted")
	}

	// Invalid profile.
	bad := *p.Profile
	bad.Tmin = 0
	if _, err := core.NewProblem(p.Sys, p.Base, p.Current, &bad, p.Weights); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestUnschedulableCurrentReported(t *testing.T) {
	// Build a system where the current application cannot fit.
	b := model.NewBuilder()
	n0 := b.Node("N0")
	b.Bus([]model.NodeID{n0}, []int{8}, 1, 2)
	ga := b.App("existing").Graph("G1", 100, 100)
	pa := ga.Proc("A", map[model.NodeID]tm.Time{n0: 80})
	gb := b.App("current").Graph("G2", 100, 100)
	gb.Proc("B", map[model.NodeID]tm.Time{n0: 50})
	sys := b.MustSystem()
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{pa: n0}, sched.Hints{}); err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(sys, st, sys.Apps[1],
		future.PaperProfile(100, 10, 4), metrics.Weights{W1P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solveSerial(p, core.AH); !errors.Is(err, core.ErrUnschedulable) {
		t.Errorf("AH error = %v, want core.ErrUnschedulable", err)
	}
	if _, err := solveSerial(p, core.MHWith(core.MHOptions{})); !errors.Is(err, core.ErrUnschedulable) {
		t.Errorf("MH error = %v, want core.ErrUnschedulable", err)
	}
	if _, err := solveSerial(p, serialSA(1, 10)); !errors.Is(err, core.ErrUnschedulable) {
		t.Errorf("SA error = %v, want core.ErrUnschedulable", err)
	}
}
