package analysis

import (
	"strings"
	"testing"

	"incdes/internal/export"
	"incdes/internal/gen"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// MaxUtil returns the utilization of the most loaded node.
func (r *Report) MaxUtil() float64 {
	max := 0.0
	for _, u := range r.NodeUtil {
		if u > max {
			max = u
		}
	}
	return max
}

// MinLaxity returns the smallest laxity over all graphs of all reported
// applications: the schedule's global distance to a deadline miss.
func (r *Report) MinLaxity() tm.Time {
	min := tm.Infinity
	for _, ar := range r.Apps {
		for _, gt := range ar.Graphs {
			min = tm.Min(min, gt.WorstLaxity)
		}
	}
	return min
}

func handBuiltState(t *testing.T) (*sched.State, *model.System) {
	t.Helper()
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2) // round 20
	g := b.App("a").Graph("G", 100, 80)
	p1 := g.Proc("P1", map[model.NodeID]tm.Time{n0: 10})
	p2 := g.Proc("P2", map[model.NodeID]tm.Time{n1: 15})
	g.Msg(p1, p2, 4)
	sys, err := b.System()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p1: n0, p2: n1}, sched.Hints{}); err != nil {
		t.Fatal(err)
	}
	return st, sys
}

func TestAnalyzeTiming(t *testing.T) {
	st, sys := handBuiltState(t)
	rep, err := Analyze(st, sys.Apps[0])
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// P1 [0,10), message arrives 30, P2 [30,45): response 45, laxity 35.
	gt := rep.Apps[0].Graphs[0]
	if gt.WorstResponse != 45 {
		t.Errorf("WorstResponse = %v, want 45", gt.WorstResponse)
	}
	if gt.WorstLaxity != 35 {
		t.Errorf("WorstLaxity = %v, want 35", gt.WorstLaxity)
	}
	if got := rep.MinLaxity(); got != 35 {
		t.Errorf("MinLaxity = %v, want 35", got)
	}
	if rep.Apps[0].BusBytes != 4 {
		t.Errorf("BusBytes = %d, want 4", rep.Apps[0].BusBytes)
	}
}

func TestAnalyzeUtilization(t *testing.T) {
	st, sys := handBuiltState(t)
	rep, err := Analyze(st, sys.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	// Node 0: 10/100; node 1: 15/100.
	if rep.NodeUtil[0] != 0.10 || rep.NodeUtil[1] != 0.15 {
		t.Errorf("NodeUtil = %v", rep.NodeUtil)
	}
	if rep.MaxUtil() != 0.15 {
		t.Errorf("MaxUtil = %v, want 0.15", rep.MaxUtil())
	}
	// Bus: 4 bytes of 5 rounds * 16 bytes = 80.
	if want := 4.0 / 80.0; rep.BusUtil != want {
		t.Errorf("BusUtil = %v, want %v", rep.BusUtil, want)
	}
}

func TestAnalyzeDetectsMissingGraph(t *testing.T) {
	st, sys := handBuiltState(t)
	ghost := &model.Application{ID: 99, Name: "ghost", Graphs: []*model.Graph{{
		ID: 99, Name: "g", Period: 100, Deadline: 100,
		Procs: []*model.Process{{ID: 99, WCET: map[model.NodeID]tm.Time{0: 10}}},
	}}}
	if _, err := Analyze(st, sys.Apps[0], ghost); err == nil {
		t.Error("unscheduled application accepted")
	}
}

func TestReportString(t *testing.T) {
	st, sys := handBuiltState(t)
	rep, err := Analyze(st, sys.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"node N0", "bus", "application \"a\"", "worst response"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeGeneratedCase(t *testing.T) {
	cfg := gen.Default()
	cfg.Nodes = 4
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 8
	tc, err := gen.MakeTestCase(cfg, 3, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(tc.Base, tc.Existing...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinLaxity() < 0 {
		t.Errorf("negative laxity %v in a valid schedule", rep.MinLaxity())
	}
	if rep.MaxUtil() <= 0 || rep.MaxUtil() > 1 {
		t.Errorf("MaxUtil = %v out of range", rep.MaxUtil())
	}
	for n, u := range rep.NodeUtil {
		if u < 0 || u > 1 {
			t.Errorf("node %d utilization %v out of range", n, u)
		}
	}
}

// TestAnalyzeAgreesWithSim: on generated cases, a schedule the
// export.Check oracle accepts must show non-negative laxity everywhere,
// and vice versa — a negative worst laxity would be a deadline miss the
// oracle reports.
func TestAnalyzeAgreesWithSim(t *testing.T) {
	cfg := gen.Default()
	cfg.Nodes = 4
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 8
	for seed := int64(0); seed < 3; seed++ {
		tc, err := gen.MakeTestCase(cfg, seed, 40, 20)
		if err != nil {
			t.Fatal(err)
		}
		st := tc.Base.Clone()
		if _, err := st.MapApp(tc.Current, sched.Hints{}); err != nil {
			t.Fatal(err)
		}
		apps := append(append([]*model.Application{}, tc.Existing...), tc.Current)
		d, err := export.Build(st)
		if err != nil {
			t.Fatalf("seed %d: schedule does not export: %v", seed, err)
		}
		if errs := export.Check(d, tc.Sys, apps...); len(errs) != 0 {
			t.Fatalf("seed %d: oracle rejects schedule: %v", seed, errs[0])
		}
		rep, err := Analyze(st, apps...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.MinLaxity() < 0 {
			t.Errorf("seed %d: oracle-valid schedule has negative laxity %v", seed, rep.MinLaxity())
		}
		// Response never exceeds deadline for any graph.
		for _, ar := range rep.Apps {
			for _, gt := range ar.Graphs {
				if gt.WorstResponse < 0 {
					t.Errorf("negative response %v", gt.WorstResponse)
				}
			}
		}
	}
}
