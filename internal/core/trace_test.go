package core_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"incdes/internal/core"
	"incdes/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trace files")

// solveTraced runs Solve with a collecting tracer attached.
func solveTraced(t *testing.T, p *core.Problem, strat core.Strategy, par int) (*core.Solution, []obs.TraceEvent) {
	t.Helper()
	var col obs.Collector
	sol, err := core.Solve(context.Background(), p, core.Options{
		Strategy:    strat,
		Parallelism: par,
		Observer:    &obs.Observer{Tracer: &col},
	})
	if err != nil {
		t.Fatalf("Solve(%s): %v", strat.Name(), err)
	}
	return sol, col.Events()
}

// TestTraceDeterministicAcrossParallelism pins the trace-layer analogue
// of the engine's determinism guarantee: the decision-event stream —
// not just the solution — is identical whether candidates are evaluated
// by one worker or four, because events are only emitted from
// deterministic serialization points.
func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	p := testProblem(t, 11, 40, 20)
	cases := []struct {
		name  string
		strat core.Strategy
	}{
		{"MH", core.MH},
		{"SA", core.SAWith(core.SAOptions{Seed: 5, Iterations: 400, Restarts: 4})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s1, e1 := solveTraced(t, p, tc.strat, 1)
			s4, e4 := solveTraced(t, p, tc.strat, 4)
			sameDesign(t, tc.name, s1, s4)
			if len(e1) == 0 {
				t.Fatal("no trace events recorded")
			}
			if !reflect.DeepEqual(e1, e4) {
				n := len(e1)
				if len(e4) < n {
					n = len(e4)
				}
				for i := 0; i < n; i++ {
					if !reflect.DeepEqual(e1[i], e4[i]) {
						t.Fatalf("event %d differs across parallelism:\n  par1 %+v\n  par4 %+v", i, e1[i], e4[i])
					}
				}
				t.Fatalf("event counts differ: %d (par 1) vs %d (par 4)", len(e1), len(e4))
			}
		})
	}
}

// TestTraceReplaysFinalCost checks the trace stands on its own: the
// recorded final cost equals the solver's reported objective, and the
// cost curve ends on it.
func TestTraceReplaysFinalCost(t *testing.T) {
	p := testProblem(t, 11, 40, 20)
	for _, strat := range []core.Strategy{core.AH, core.MH,
		core.SAWith(core.SAOptions{Seed: 3, Iterations: 300})} {
		sol, events := solveTraced(t, p, strat, 2)
		final, ok := obs.FinalCost(events)
		if !ok {
			t.Fatalf("%s: trace has no solve.done event", strat.Name())
		}
		if final != sol.Report.Objective {
			t.Errorf("%s: trace replays to %v, solver reported %v", strat.Name(), final, sol.Report.Objective)
		}
		curve := obs.CostCurve(events)
		if len(curve) == 0 {
			t.Fatalf("%s: empty cost curve", strat.Name())
		}
		if last := curve[len(curve)-1]; last != sol.Report.Objective {
			t.Errorf("%s: cost curve ends at %v, want %v", strat.Name(), last, sol.Report.Objective)
		}
	}
}

// TestGoldenTrace locks the serialized trace format and the emission
// order: an MH run on a fixed problem must reproduce the checked-in
// JSONL byte for byte. Regenerate with: go test ./internal/core -run
// TestGoldenTrace -update-golden
func TestGoldenTrace(t *testing.T) {
	p := testProblem(t, 7, 30, 12)
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	sol, err := core.Solve(context.Background(), p, core.Options{
		Strategy:    core.MHWith(core.MHOptions{MaxIterations: 6}),
		Parallelism: 2,
		Observer:    &obs.Observer{Tracer: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_mh.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace diverges from %s\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}

	// The golden trace must also replay: its final cost is the objective.
	events, err := obs.ReadTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if final, ok := obs.FinalCost(events); !ok || final != sol.Report.Objective {
		t.Errorf("golden trace replays to %v/%v, solver reported %v", final, ok, sol.Report.Objective)
	}
}

// TestObserverNeutral verifies attaching the full observability layer
// changes nothing about the computed design, and that the registry
// actually saw the run.
func TestObserverNeutral(t *testing.T) {
	p := testProblem(t, 19, 40, 20)
	plain := runSolve(t, p, core.Options{Strategy: core.MH, Parallelism: 2})

	reg := obs.NewRegistry()
	var col obs.Collector
	observed, err := core.Solve(context.Background(), p, core.Options{
		Strategy:    core.MH,
		Parallelism: 2,
		Observer:    &obs.Observer{Stats: reg, Tracer: &col},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameDesign(t, "observed vs plain", plain, observed)

	snap := reg.Snapshot()
	for _, name := range []string{obs.CtrEvaluations, obs.CtrCacheMisses,
		obs.CtrSchedCalls, obs.CtrTTPFindSlot} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s stayed zero over an MH run", name)
		}
	}
	if snap.Counters[obs.CtrEvaluations] != int64(observed.Evaluations) {
		t.Errorf("registry evaluations %d, solution reports %d",
			snap.Counters[obs.CtrEvaluations], observed.Evaluations)
	}
	// Every MH evaluation but the initial mapping's runs the scheduler
	// through Engine.Evaluate, and nothing is served without it.
	if got := snap.Counters[obs.CtrCacheHits]; got != 0 {
		t.Errorf("%s = %d, want 0", obs.CtrCacheHits, got)
	}
	if got, want := snap.Counters[obs.CtrCacheMisses], snap.Counters[obs.CtrEvaluations]-1; got != want {
		t.Errorf("%s = %d, want %s - 1 = %d", obs.CtrCacheMisses, got, obs.CtrEvaluations, want)
	}
}
