package incdes_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"incdes/internal/core"
	"incdes/internal/exec"
	"incdes/internal/export"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/textplot"
	"incdes/internal/tgff"
)

// checkSchedule exports st as a deployable design and checks it against
// sys for the given applications, returning the first problem.
func checkSchedule(st *sched.State, sys *model.System, apps ...*model.Application) error {
	d, err := export.Build(st)
	if err != nil {
		return err
	}
	if errs := export.Check(d, sys, apps...); len(errs) != 0 {
		return fmt.Errorf("%d violations, first: %s", len(errs), errs[0])
	}
	return nil
}

// TestEndToEndPipeline drives the whole stack the way cmd/incmap does:
// generate a system, freeze the existing applications, map the current
// one with every strategy, verify each schedule with the independent
// oracle, score it, and render it.
func TestEndToEndPipeline(t *testing.T) {
	cfg := gen.Default()
	cfg.Nodes = 5
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 12
	tc, err := gen.MakeTestCase(cfg, 31, 60, 30)
	if err != nil {
		t.Fatalf("MakeTestCase: %v", err)
	}
	p, err := core.NewProblem(tc.Sys, tc.Base, tc.Current, tc.Profile,
		metrics.DefaultWeights(tc.Profile))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	solutions := map[string]*core.Solution{}
	if solutions["AH"], err = core.Solve(ctx, p, core.Options{Strategy: core.AH}); err != nil {
		t.Fatalf("AH: %v", err)
	}
	if solutions["MH"], err = core.Solve(ctx, p, core.Options{Strategy: core.MH}); err != nil {
		t.Fatalf("MH: %v", err)
	}
	saOpts := core.DefaultSAOptions()
	saOpts.Iterations = 500
	if solutions["SA"], err = core.Solve(ctx, p, core.Options{Strategy: core.SAWith(saOpts)}); err != nil {
		t.Fatalf("SA: %v", err)
	}

	for name, sol := range solutions {
		if err := checkSchedule(sol.State, tc.Sys, tc.Sys.Apps...); err != nil {
			t.Fatalf("%s schedule invalid: %v", name, err)
		}
		gantt := textplot.Gantt(sol.State, 80)
		if !strings.Contains(gantt, "bus") {
			t.Errorf("%s Gantt missing bus row", name)
		}
		// Re-evaluating the metrics must reproduce the solution's report.
		again := metrics.Evaluate(sol.State, tc.Profile, p.Weights)
		if again.Objective != sol.Report.Objective {
			t.Errorf("%s: metric evaluation not reproducible: %v vs %v",
				name, again.Objective, sol.Report.Objective)
		}
	}

	if solutions["MH"].Objective() > solutions["AH"].Objective()+1e-9 {
		t.Error("MH ended worse than AH")
	}

	// A sampled future application must fit at least on the MH design or
	// the AH design whenever it fits on the other (monotonicity is not
	// guaranteed per-sample, so only smoke-check the mechanism).
	futGen := gen.New(cfg, 99)
	futGen.StartIDsAt(1 << 20)
	fut := futGen.FutureApp("future", tc.Profile, 15)
	if err := fut.Validate(tc.Sys.Arch); err != nil {
		t.Fatalf("future app invalid: %v", err)
	}
	for name, sol := range solutions {
		st := sol.State.Clone()
		if _, err := st.MapApp(fut, sched.Hints{}); err == nil {
			// Validate the extended schedule too, against the system
			// the future application joins.
			apps := append([]*model.Application{}, tc.Sys.Apps...)
			apps = append(apps, fut)
			extended := &model.System{Arch: tc.Sys.Arch, Apps: apps}
			if err := checkSchedule(st, extended, apps...); err != nil {
				t.Fatalf("%s+future schedule invalid: %v", name, err)
			}
		}
	}
}

// TestJSONRoundTripThroughPipeline verifies a generated system survives
// serialization and still schedules identically.
func TestJSONRoundTripThroughPipeline(t *testing.T) {
	cfg := gen.Default()
	cfg.Nodes = 4
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 8
	tc, err := gen.MakeTestCase(cfg, 5, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tc.Sys.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sys2, err := model.ReadSystem(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewState(sys2)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range sys2.Apps {
		if _, err := st.MapApp(app, sched.Hints{}); err != nil {
			t.Fatalf("mapping %q after round trip: %v", app.Name, err)
		}
	}
	if err := checkSchedule(st, sys2, sys2.Apps...); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
}

// TestFixtureSystemLoads drives the committed fixture through the whole
// pipeline: load, freeze existing, map, validate, export, verify, execute.
func TestFixtureSystemLoads(t *testing.T) {
	f, err := os.Open("testdata/system.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := model.ReadSystem(f)
	if err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	base, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range sys.Apps[:len(sys.Apps)-1] {
		if _, err := base.MapApp(app, sched.Hints{}); err != nil {
			t.Fatalf("freezing %q: %v", app.Name, err)
		}
	}
	current := sys.Apps[len(sys.Apps)-1]
	prof := gen.ProfileForSystem(gen.Default(), sys)
	p, err := core.NewProblem(sys, base, current, prof, metrics.DefaultWeights(prof))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(context.Background(), p,
		core.Options{Strategy: core.MHWith(core.MHOptions{MaxIterations: 5})})
	if err != nil {
		t.Fatal(err)
	}
	design, err := export.Build(sol.State)
	if err != nil {
		t.Fatal(err)
	}
	if errs := export.Check(design, sys, sys.Apps...); len(errs) != 0 {
		t.Fatalf("fixture design fails verification: %v", errs[0])
	}
	res, err := exec.Run(design, sys, sys.Apps, exec.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("fixture execution violated: %v", res.Violations[0])
	}
}

// TestFixtureTGFFLoads round-trips the committed TGFF workload.
func TestFixtureTGFFLoads(t *testing.T) {
	f, err := os.Open("testdata/workload.tgff")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parsed, err := tgff.Parse(f)
	if err != nil {
		t.Fatalf("fixture TGFF invalid: %v", err)
	}
	sys, err := parsed.Build("workload", tgff.BusConfig{SlotBytes: 16, ByteTime: 1, SlotOverhead: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.MapApp(sys.Apps[0], sched.Hints{}); err != nil {
		t.Fatalf("mapping TGFF workload: %v", err)
	}
}
