package core_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"incdes/internal/core"
)

// runSolve is a shorthand for Solve with a background context.
func runSolve(t *testing.T, p *core.Problem, opts core.Options) *core.Solution {
	t.Helper()
	sol, err := core.Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatalf("Solve(%s): %v", opts.Strategy.Name(), err)
	}
	return sol
}

// sameDesign asserts two solutions picked the identical design: same
// mapping, same hints, same report (byte for byte), same evaluation
// count. Elapsed legitimately differs between runs.
func sameDesign(t *testing.T, label string, a, b *core.Solution) {
	t.Helper()
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Errorf("%s: reports differ: %+v vs %+v", label, a.Report, b.Report)
	}
	if !reflect.DeepEqual(a.Mapping, b.Mapping) {
		t.Errorf("%s: mappings differ", label)
	}
	if !reflect.DeepEqual(a.Hints, b.Hints) {
		t.Errorf("%s: hints differ", label)
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("%s: evaluation counts differ: %d vs %d", label, a.Evaluations, b.Evaluations)
	}
}

// TestSolveDeterministicAcrossParallelism is the redesign's core
// guarantee: for a fixed problem and options, the solution — report
// included — is identical whether candidates are evaluated by one worker
// or many.
func TestSolveDeterministicAcrossParallelism(t *testing.T) {
	p := testProblem(t, 11, 50, 25)
	strategies := []struct {
		name  string
		strat core.Strategy
	}{
		{"MH", core.MHWith(core.MHOptions{MaxIterations: 8})},
		{"SA", core.SAWith(core.SAOptions{Seed: 3, Iterations: 400, Restarts: 3})},
	}
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			ref := runSolve(t, p, core.Options{Strategy: s.strat, Parallelism: 1})
			for _, par := range []int{4, 8} {
				got := runSolve(t, p, core.Options{Strategy: s.strat, Parallelism: par})
				sameDesign(t, s.name, ref, got)
			}
		})
	}
}

// TestSolveCancellation: cancelling the context mid-run returns the best
// design found so far (flagged Interrupted, no error) and leaks no
// worker goroutines. The annealer is far too long to finish before the
// timer fires.
func TestSolveCancellation(t *testing.T) {
	p := testProblem(t, 13, 50, 25)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(200*time.Millisecond, cancel)
	defer timer.Stop()
	sol, err := core.Solve(ctx, p, core.Options{
		Strategy:    core.SAWith(core.SAOptions{Seed: 7, Iterations: 50_000_000, Restarts: 4}),
		Parallelism: 4,
	})
	if err != nil {
		t.Fatalf("Solve after cancel: %v", err)
	}
	if !sol.Interrupted {
		t.Error("solution not flagged Interrupted")
	}
	if sol.State == nil || sol.Report.Objective < 0 {
		t.Errorf("best-so-far solution malformed: %+v", sol.Report)
	}

	// Workers must not outlive Solve. Allow the runtime a moment to
	// retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestSolvePreCancelled: a context cancelled before Solve starts still
// yields the initial design for iterative strategies (flagged
// Interrupted) — there is always a best-so-far once the problem is
// feasible.
func TestSolvePreCancelled(t *testing.T) {
	p := testProblem(t, 14, 50, 25)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := core.Solve(ctx, p, core.Options{Strategy: core.MH, Parallelism: 2})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !sol.Interrupted {
		t.Error("solution not flagged Interrupted")
	}
	if sol.State == nil {
		t.Fatal("no state on pre-cancelled solve")
	}
}

func TestSolveNilStrategy(t *testing.T) {
	p := testProblem(t, 15, 30, 15)
	if _, err := core.Solve(context.Background(), p, core.Options{}); err == nil {
		t.Fatal("Solve accepted a nil strategy")
	}
}

// TestDefaultConstructors pins the documented defaults of the explicit
// option constructors introduced with the Solve API.
func TestDefaultConstructors(t *testing.T) {
	mh := core.DefaultMHOptions()
	if mh.MaxIterations != 50 || mh.ProcCandidates != 5 || mh.MsgCandidates != 4 {
		t.Errorf("DefaultMHOptions = %+v", mh)
	}
	sa := core.DefaultSAOptions()
	if sa.Seed != 1 || sa.Restarts != 1 {
		t.Errorf("DefaultSAOptions = %+v", sa)
	}
	if sa.Iterations != 0 {
		t.Errorf("DefaultSAOptions.Iterations = %d, want 0 (auto-size)", sa.Iterations)
	}
}
