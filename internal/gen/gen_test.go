package gen

import (
	"testing"

	"incdes/internal/export"
	"incdes/internal/model"
	"incdes/internal/tm"
)

// smallConfig keeps unit-test workloads quick.
func smallConfig() Config {
	cfg := Default()
	cfg.Nodes = 4
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 10
	return cfg
}

func TestArchitectureShape(t *testing.T) {
	g := New(smallConfig(), 1)
	arch := g.Architecture()
	if len(arch.Nodes) != 4 {
		t.Fatalf("%d nodes, want 4", len(arch.Nodes))
	}
	if err := arch.Validate(); err != nil {
		t.Fatalf("generated architecture invalid: %v", err)
	}
	if arch.Buses[0].NumSlots() != 4 {
		t.Errorf("%d slots, want 4", arch.Buses[0].NumSlots())
	}
}

func TestApplicationStructure(t *testing.T) {
	cfg := smallConfig()
	g := New(cfg, 7)
	app, levels := g.Application("a", 40)
	if app.NumProcs() != 40 {
		t.Errorf("NumProcs = %d, want 40", app.NumProcs())
	}
	if len(levels) != len(app.Graphs) {
		t.Errorf("%d levels for %d graphs", len(levels), len(app.Graphs))
	}
	for _, gr := range app.Graphs {
		if _, err := gr.TopoOrder(); err != nil {
			t.Errorf("graph %s: %v", gr.Name, err)
		}
		for _, p := range gr.Procs {
			if len(p.WCET) == 0 {
				t.Errorf("process %d has no allowed nodes", p.ID)
			}
			for _, w := range p.WCET {
				if w < 1 {
					t.Errorf("process %d has WCET %v", p.ID, w)
				}
			}
		}
		for _, m := range gr.Msgs {
			if m.Bytes < cfg.MsgMin || m.Bytes > cfg.MsgMax {
				t.Errorf("message %d has %d bytes outside [%d,%d]", m.ID, m.Bytes, cfg.MsgMin, cfg.MsgMax)
			}
		}
	}
}

func TestApplicationConnectivity(t *testing.T) {
	g := New(smallConfig(), 3)
	app, _ := g.Application("a", 30)
	for _, gr := range app.Graphs {
		if len(gr.Procs) < 2 {
			continue
		}
		// Every process outside the first layer has a predecessor, so a
		// graph with n processes has at least (n - firstLayer) messages.
		if len(gr.Msgs) == 0 {
			t.Errorf("graph %s with %d processes has no messages", gr.Name, len(gr.Procs))
		}
	}
}

func TestDeterminism(t *testing.T) {
	a1, _ := New(smallConfig(), 42).Application("a", 25)
	a2, _ := New(smallConfig(), 42).Application("a", 25)
	if a1.NumProcs() != a2.NumProcs() || a1.NumMsgs() != a2.NumMsgs() {
		t.Fatal("same seed produced different applications")
	}
	for gi := range a1.Graphs {
		for pi := range a1.Graphs[gi].Procs {
			p1, p2 := a1.Graphs[gi].Procs[pi], a2.Graphs[gi].Procs[pi]
			for n, w := range p1.WCET {
				if p2.WCET[n] != w {
					t.Fatal("same seed produced different WCETs")
				}
			}
		}
	}
	b, _ := New(smallConfig(), 43).Application("a", 25)
	if a1.NumMsgs() == b.NumMsgs() && a1.Graphs[0].Procs[0].AvgWCET() == b.Graphs[0].Procs[0].AvgWCET() {
		t.Log("different seeds produced suspiciously similar applications (not fatal)")
	}
}

func TestAssignPeriods(t *testing.T) {
	cfg := smallConfig()
	g := New(cfg, 5)
	app, lv := g.Application("a", 30)
	base, err := g.AssignPeriods([]*model.Application{app}, [][]int{lv})
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Fatalf("base period = %v", base)
	}
	if base%g.Architecture().Buses[0].RoundLen() != 0 {
		t.Errorf("base period %v not a multiple of the TDMA round %v", base, g.Architecture().Buses[0].RoundLen())
	}
	for gi, gr := range app.Graphs {
		if gr.Period != tm.Time(lv[gi])*base {
			t.Errorf("graph %d period = %v, want level %d * base %v", gi, gr.Period, lv[gi], base)
		}
		if gr.Deadline != gr.Period {
			t.Errorf("graph %d deadline = %v, want period", gi, gr.Deadline)
		}
	}
}

func TestMakeTestCaseSchedulableAndValid(t *testing.T) {
	cfg := smallConfig()
	tc, err := MakeTestCase(cfg, 11, 60, 20)
	if err != nil {
		t.Fatalf("MakeTestCase: %v", err)
	}
	if err := tc.Sys.Validate(); err != nil {
		t.Fatalf("test case system invalid: %v", err)
	}
	if got := countProcs(tc.Existing); got != 60 {
		t.Errorf("existing processes = %d, want 60", got)
	}
	if tc.Current.NumProcs() != 20 {
		t.Errorf("current processes = %d, want 20", tc.Current.NumProcs())
	}
	// The base state must hold a valid schedule of the existing apps.
	d, err := export.Build(tc.Base)
	if err != nil {
		t.Fatalf("base schedule does not export: %v", err)
	}
	if errs := export.Check(d, tc.Sys, tc.Existing...); len(errs) != 0 {
		t.Fatalf("base schedule violates constraints: %v", errs[0])
	}
	if err := tc.Profile.Validate(); err != nil {
		t.Errorf("profile invalid: %v", err)
	}
}

func TestMakeTestCaseDeterministic(t *testing.T) {
	cfg := smallConfig()
	t1, err := MakeTestCase(cfg, 99, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := MakeTestCase(cfg, 99, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Seed != t2.Seed || t1.BasePeriod != t2.BasePeriod {
		t.Error("test case generation not deterministic")
	}
	if len(t1.Base.ProcEntries()) != len(t2.Base.ProcEntries()) {
		t.Error("base schedules differ across identical seeds")
	}
}

func TestFutureAppFollowsProfile(t *testing.T) {
	cfg := smallConfig()
	g := New(cfg, 21)
	app, lv := g.Application("a", 20)
	base, err := g.AssignPeriods([]*model.Application{app}, [][]int{lv})
	if err != nil {
		t.Fatal(err)
	}
	prof := g.Profile(base)
	fut := g.FutureApp("future", prof, 25)
	if fut.NumProcs() != 25 {
		t.Errorf("future NumProcs = %d, want 25", fut.NumProcs())
	}
	wcetSizes := map[int64]bool{}
	for _, b := range prof.WCET {
		wcetSizes[b.Size] = true
	}
	basePeriod := prof.Tmin * tm.Time(cfg.FutureTminDen)
	for gi, gr := range fut.Graphs {
		want := basePeriod
		if gi == 0 {
			want = prof.Tmin
		}
		if gr.Period != want || gr.Deadline != want {
			t.Errorf("future graph %d period = %v, want %v", gi, gr.Period, want)
		}
		for _, m := range gr.Msgs {
			found := false
			for _, b := range prof.MsgBytes {
				if int64(m.Bytes) == b.Size {
					found = true
				}
			}
			if !found {
				t.Errorf("future message size %d not in profile distribution", m.Bytes)
			}
		}
	}
}

// TestFutureAppDeterministic pins that a sampled future application is a
// function of the generator's seed: two generators from one seed draw
// identical WCET tables (each node's heterogeneity factor is drawn in
// node order, never in map order).
func TestFutureAppDeterministic(t *testing.T) {
	draw := func() []*model.Application {
		g := New(smallConfig(), 21)
		app, lv := g.Application("a", 20)
		base, err := g.AssignPeriods([]*model.Application{app}, [][]int{lv})
		if err != nil {
			t.Fatal(err)
		}
		prof := g.Profile(base)
		var futs []*model.Application
		for i := 0; i < 4; i++ {
			futs = append(futs, g.FutureApp("future", prof, 25))
		}
		return futs
	}
	a, b := draw(), draw()
	for i := range a {
		for gi, gr := range a[i].Graphs {
			for pi, p := range gr.Procs {
				q := b[i].Graphs[gi].Procs[pi]
				for _, n := range p.AllowedNodes() {
					if p.WCET[n] != q.WCET[n] {
						t.Fatalf("future %d process %d node %d: WCET %v then %v from one seed",
							i, p.ID, n, p.WCET[n], q.WCET[n])
					}
				}
			}
		}
	}
}

func TestProfileScalesWithConfig(t *testing.T) {
	cfg := smallConfig()
	g := New(cfg, 2)
	prof := g.Profile(1000)
	wantTmin := tm.Time(1000 / cfg.FutureTminDen)
	if prof.Tmin != wantTmin {
		t.Errorf("Tmin = %v, want base/%d = %v", prof.Tmin, cfg.FutureTminDen, wantTmin)
	}
	wantTNeed := tm.Time(cfg.FutureUtil * float64(cfg.Nodes) * float64(wantTmin))
	if prof.TNeed != wantTNeed {
		t.Errorf("TNeed = %v, want %v", prof.TNeed, wantTNeed)
	}
	if prof.BNeedBytes <= 0 {
		t.Errorf("BNeedBytes = %d", prof.BNeedBytes)
	}
}

func countProcs(apps []*model.Application) int {
	n := 0
	for _, a := range apps {
		n += a.NumProcs()
	}
	return n
}

// TestFutureAppDistributionStatistics draws many future applications and
// checks the WCET histogram roughly matches the profile (the generator
// must actually follow the paper's distributions, not just any values).
func TestFutureAppDistributionStatistics(t *testing.T) {
	cfg := smallConfig()
	cfg.HeteroSpread = 0 // draw the base values exactly
	g := New(cfg, 4)
	app, lv := g.Application("a", 20)
	base, err := g.AssignPeriods([]*model.Application{app}, [][]int{lv})
	if err != nil {
		t.Fatal(err)
	}
	prof := g.Profile(base)

	counts := map[int64]int{}
	total := 0
	for i := 0; i < 40; i++ {
		fut := g.FutureApp("f", prof, 25)
		for _, gr := range fut.Graphs {
			for _, p := range gr.Procs {
				// HeteroSpread 0: every node sees the same drawn value.
				for _, w := range p.WCET {
					counts[int64(w)]++
					total++
					break
				}
			}
		}
	}
	for _, bin := range prof.WCET {
		got := float64(counts[bin.Size]) / float64(total)
		if got < bin.Prob-0.12 || got > bin.Prob+0.12 {
			t.Errorf("WCET %d drawn with frequency %.2f, profile says %.2f", bin.Size, got, bin.Prob)
		}
	}
	// No value outside the distribution.
	for v := range counts {
		found := false
		for _, bin := range prof.WCET {
			if bin.Size == v {
				found = true
			}
		}
		if !found {
			t.Errorf("WCET %d drawn but absent from the profile", v)
		}
	}
}

func TestStartIDsAtSeparatesNamespaces(t *testing.T) {
	cfg := smallConfig()
	g1 := New(cfg, 1)
	a1, _ := g1.Application("a", 20)
	g2 := New(cfg, 2)
	g2.StartIDsAt(1 << 20)
	a2, _ := g2.Application("b", 20)
	ids := map[model.ProcID]bool{}
	for _, gr := range a1.Graphs {
		for _, p := range gr.Procs {
			ids[p.ID] = true
		}
	}
	for _, gr := range a2.Graphs {
		for _, p := range gr.Procs {
			if ids[p.ID] {
				t.Fatalf("process id %d collides across offset generators", p.ID)
			}
		}
	}
}
