package eval

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/obs"
)

// smallOptions keeps experiment unit tests fast: a 5-node platform, a
// small existing workload, and a weak (but deterministic) SA.
func smallOptions() Options {
	cfg := gen.Default()
	cfg.Nodes = 5
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 12
	return Options{
		Config:        cfg,
		Sizes:         []int{15, 30},
		Existing:      50,
		Cases:         2,
		BaseSeed:      7,
		SAOptions:     core.SAOptions{Iterations: 300},
		MHOptions:     core.MHOptions{MaxIterations: 10},
		FutureProcs:   20,
		FutureSamples: 3,
	}
}

func TestRunDeviation(t *testing.T) {
	res, err := RunDeviation(context.Background(), smallOptions())
	if err != nil {
		t.Fatalf("RunDeviation: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Cases != 2 {
			t.Errorf("size %d: %d cases, want 2", row.Size, row.Cases)
		}
		for name, dev := range map[string]float64{"AH": row.AHDev, "MH": row.MHDev, "SA": row.SADev} {
			if dev < 0 {
				t.Errorf("size %d: %s deviation %v is negative (reference must be the best solution)",
					row.Size, name, dev)
			}
		}
		if row.AHDev < row.MHDev-1e-9 {
			t.Errorf("size %d: AH deviation %v below MH %v — MH never does worse than its AH start",
				row.Size, row.AHDev, row.MHDev)
		}
		if row.AHTime > row.MHTime || row.MHEvals <= row.AHEvals {
			t.Errorf("size %d: cost ordering broken: AH %v/%v evals, MH %v/%v evals",
				row.Size, row.AHTime, row.AHEvals, row.MHTime, row.MHEvals)
		}
	}
}

func TestDeviationRendering(t *testing.T) {
	res := &DeviationResult{Rows: []DevRow{
		{Size: 40, Cases: 2, AHDev: 12.5, MHDev: 1.5, SADev: 0},
		{Size: 80, Cases: 2, AHDev: 25, MHDev: 3, SADev: 0.5},
	}}
	chart := res.DeviationChart()
	for _, want := range []string{"AH", "MH", "SA", "40", "80"} {
		if !strings.Contains(chart, want) {
			t.Errorf("DeviationChart missing %q:\n%s", want, chart)
		}
	}
	if rt := res.RuntimeChart(); !strings.Contains(rt, "ms") {
		t.Errorf("RuntimeChart missing unit:\n%s", rt)
	}
	if tab := res.Table(); !strings.Contains(tab, "AH dev") {
		t.Errorf("Table missing column:\n%s", tab)
	}
}

func TestRunFutureFit(t *testing.T) {
	o := smallOptions()
	o.Sizes = []int{20}
	res, err := RunFutureFit(context.Background(), o)
	if err != nil {
		t.Fatalf("RunFutureFit: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	row := res.Rows[0]
	if row.AHFit < 0 || row.AHFit > 100 || row.MHFit < 0 || row.MHFit > 100 {
		t.Errorf("fit percentages out of range: %+v", row)
	}
	chart := res.FitChart()
	if !strings.Contains(chart, "future applications") {
		t.Errorf("FitChart malformed:\n%s", chart)
	}
}

func TestRunAblation(t *testing.T) {
	o := smallOptions()
	o.Sizes = []int{25}
	res, err := RunAblation(context.Background(), o)
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d variants, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Evals <= 0 {
			t.Errorf("variant %q ran no evaluations", row.Variant)
		}
	}
	if tab := res.Table(); !strings.Contains(tab, "MH (full)") {
		t.Errorf("ablation table malformed:\n%s", tab)
	}
}

func TestProgressLogging(t *testing.T) {
	var sb strings.Builder
	o := smallOptions()
	o.Sizes = []int{15}
	o.Cases = 1
	o.Progress = &sb
	if _, err := RunDeviation(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "size 15") {
		t.Errorf("progress log empty or malformed: %q", sb.String())
	}
}

// TestRunRelaxed also checks that the sweep's observer reaches the
// solves inside each admission, not only the AH and MH solves of the
// current application.
func TestRunRelaxed(t *testing.T) {
	o := smallOptions()
	o.Sizes = []int{20}
	o.FutureSamples = 2
	o.FutureProcs = 15
	reg := obs.NewRegistry()
	o.Observer = &obs.Observer{Stats: reg}
	res, err := RunRelaxed(context.Background(), o)
	if err != nil {
		t.Fatalf("RunRelaxed: %v", err)
	}
	if got, placements := reg.Snapshot().Counters[obs.CtrSolves], int64(2*o.Cases); got <= placements {
		t.Errorf("%s = %d, want more than the %d AH and MH placements", obs.CtrSolves, got, placements)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	row := res.Rows[0]
	if row.AHCost < 0 || row.MHCost < 0 {
		t.Errorf("negative modification costs: %+v", row)
	}
	if row.AHFail < 0 || row.AHFail > 100 || row.MHFail < 0 || row.MHFail > 100 {
		t.Errorf("failure percentages out of range: %+v", row)
	}
	if tab := res.Table(); !strings.Contains(tab, "mod cost") {
		t.Errorf("relaxed table malformed:\n%s", tab)
	}
}

// TestFutureSweepsReproducible runs the two sweeps that sample future
// applications twice each: a sampled future application depends only on
// its seed, so the rows must be equal. The future-fit options are sized
// so the fit rates sit between 0 and 100%, where a different draw shows.
func TestFutureSweepsReproducible(t *testing.T) {
	fit := smallOptions()
	fit.Existing = 100
	fit.Sizes = []int{20, 30, 40}
	fit.FutureProcs = 10
	fit.FutureSamples = 12
	relaxed := smallOptions()
	relaxed.Sizes = []int{20, 30}
	relaxed.FutureSamples = 4
	for _, run := range []struct {
		name string
		rows func() (any, error)
	}{
		{"RunFutureFit", func() (any, error) {
			res, err := RunFutureFit(context.Background(), fit)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}},
		{"RunRelaxed", func() (any, error) {
			res, err := RunRelaxed(context.Background(), relaxed)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}},
	} {
		first, err := run.rows()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		second, err := run.rows()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s differs between two identical runs:\n%+v\n%+v", run.name, first, second)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	o := smallOptions()
	o.Sizes = []int{15}
	o.Cases = 3
	seq, err := RunDeviation(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	seqAbl, err := RunAblation(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 3
	par, err := RunDeviation(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	// Objectives are deterministic per seed; only times may differ.
	if seq.Rows[0].AHObj != par.Rows[0].AHObj ||
		seq.Rows[0].MHObj != par.Rows[0].MHObj ||
		seq.Rows[0].SAObj != par.Rows[0].SAObj {
		t.Errorf("parallel run changed results: %+v vs %+v", seq.Rows[0], par.Rows[0])
	}
	parAbl, err := RunAblation(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range seqAbl.Rows {
		if p := parAbl.Rows[i]; row.Obj != p.Obj || row.Evals != p.Evals {
			t.Errorf("parallel ablation changed %q: %+v vs %+v", row.Variant, row, p)
		}
	}
}

func TestRunCriterionAblation(t *testing.T) {
	o := smallOptions()
	o.Sizes = []int{25}
	o.FutureSamples = 2
	o.FutureProcs = 15
	res, err := RunCriterionAblation(context.Background(), o)
	if err != nil {
		t.Fatalf("RunCriterionAblation: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d variants, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Fit < 0 || row.Fit > 100 {
			t.Errorf("%s fit %v out of range", row.Variant, row.Fit)
		}
		if row.FullObjective < 0 {
			t.Errorf("%s objective %v negative", row.Variant, row.FullObjective)
		}
	}
	if tab := res.Table(); !strings.Contains(tab, "C1 only") {
		t.Errorf("criterion table malformed:\n%s", tab)
	}
}
