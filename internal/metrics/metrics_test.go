package metrics

import (
	"math"
	"testing"

	"incdes/internal/future"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// pinnedState builds a single-node system (bus round 10, slot of 8 bytes)
// with one 100-tu application whose 10-tu processes are pinned at the
// given start offsets. It returns the scheduled state.
func pinnedState(t *testing.T, starts []tm.Time) *sched.State {
	t.Helper()
	b := model.NewBuilder()
	n0 := b.Node("N0")
	b.Bus([]model.NodeID{n0}, []int{8}, 1, 2)
	g := b.App("a").Graph("G", 100, 100)
	if len(starts) == 0 {
		starts = []tm.Time{0} // a graph needs at least one process
	}
	mapping := model.Mapping{}
	hints := sched.Hints{}
	for _, s := range starts {
		p := g.Proc("P", map[model.NodeID]tm.Time{n0: 10})
		mapping[p] = n0
		hints = hints.SetProcStart(p, s)
	}
	sys, err := b.System()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ScheduleApp(sys.Apps[0], mapping, hints); err != nil {
		t.Fatal(err)
	}
	return st
}

// prof40x20 describes a future application wanting one 40-tu and two
// 20-tu processes per 100-tu window (TNeed 80).
func prof40x20() *future.Profile {
	return &future.Profile{
		Tmin: 100, TNeed: 80, BNeedBytes: 0,
		WCET:     []future.Bin{{Size: 40, Prob: 0.5}, {Size: 20, Prob: 0.5}},
		MsgBytes: []future.Bin{{Size: 2, Prob: 1}},
	}
}

// TestCriterion1Contiguous reproduces the slide-12 contrast: contiguous
// slack accommodates the whole future application, C1P = 0.
func TestCriterion1Contiguous(t *testing.T) {
	// Two processes back-to-back at 0 and 10; slack [20,100) is one
	// 80-tu chunk and the items {40,20,20} all pack.
	cont := Evaluate(pinnedState(t, []tm.Time{0, 10}), prof40x20(), Weights{W1P: 1})
	if cont.C1P != 0 {
		t.Errorf("contiguous C1P = %v, want 0", cont.C1P)
	}
	if cont.Objective != 0 {
		t.Errorf("objective = %v, want 0", cont.Objective)
	}
}

func TestCriterion1FragmentedValue(t *testing.T) {
	// Busy: [0,10),[20,30),[40,50),[60,70),[80,90) -> slack pieces of
	// 10 tu each at 10,30,50,70,90. Items {40,20,20}: nothing fits.
	st := pinnedState(t, []tm.Time{0, 20, 40, 60, 80})
	r := Evaluate(st, prof40x20(), Weights{W1P: 1})
	if r.C1P != 100 {
		t.Errorf("fully fragmented C1P = %v, want 100", r.C1P)
	}

	// Busy: [0,10),[30,40),[60,70): slack pieces 20,20,20,30.
	// The 40 cannot be packed, both 20s can: C1P = 50%.
	st = pinnedState(t, []tm.Time{0, 30, 60})
	r = Evaluate(st, prof40x20(), Weights{W1P: 1})
	if r.C1P != 50 {
		t.Errorf("partially fragmented C1P = %v, want 50", r.C1P)
	}
}

// TestCriterion2Distribution reproduces the slide-13 contrast: slack
// bunched into one window starves the periodic future demand even though
// total slack is identical.
func TestCriterion2Distribution(t *testing.T) {
	prof := &future.Profile{
		Tmin: 50, TNeed: 40, BNeedBytes: 0,
		WCET:     []future.Bin{{Size: 20, Prob: 1}},
		MsgBytes: []future.Bin{{Size: 2, Prob: 1}},
	}
	w := Weights{W2P: 1}

	// Bunched: busy [50,100) leaves window [0,50) fully free but window
	// [50,100) with zero slack: C2P = 0, shortfall 40.
	bunched := pinnedState(t, []tm.Time{50, 60, 70, 80, 90})
	rb := Evaluate(bunched, prof, w)
	if rb.C2P != 0 {
		t.Errorf("bunched C2P = %v, want 0", rb.C2P)
	}
	if rb.ShortfallP != 40 || rb.Objective != 40 {
		t.Errorf("bunched shortfall = %v, objective = %v; want 40, 40", rb.ShortfallP, rb.Objective)
	}

	// Distributed: busy [0,10),[20,30) in window 0 and [50,60),[70,80),
	// [90,100) in window 1: per-window slack 30 and 20 -> C2P = 20.
	distr := pinnedState(t, []tm.Time{0, 20, 50, 70, 90})
	rd := Evaluate(distr, prof, w)
	if rd.C2P != 20 {
		t.Errorf("distributed C2P = %v, want 20", rd.C2P)
	}
	if rd.ShortfallP != 20 {
		t.Errorf("distributed shortfall = %v, want 20", rd.ShortfallP)
	}
	if rd.Objective >= rb.Objective {
		t.Error("distributed slack must score better than bunched slack")
	}
}

func TestCriterion2SumsOverNodes(t *testing.T) {
	// Two nodes, each idle: C2P = sum of both nodes' min window slack.
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2) // round 20
	g := b.App("a").Graph("G", 100, 100)
	p := g.Proc("P", map[model.NodeID]tm.Time{n0: 40})
	sys, err := b.System()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p: n0}, sched.Hints{}); err != nil {
		t.Fatal(err)
	}
	prof := &future.Profile{
		Tmin: 100, TNeed: 100, BNeedBytes: 0,
		WCET:     []future.Bin{{Size: 50, Prob: 1}},
		MsgBytes: []future.Bin{{Size: 2, Prob: 1}},
	}
	r := Evaluate(st, prof, Weights{})
	// Node 0 idle 60, node 1 idle 100 -> C2P = 160.
	if r.C2P != 160 {
		t.Errorf("C2P = %v, want 160", r.C2P)
	}
}

func TestCriterion1Messages(t *testing.T) {
	st := pinnedState(t, nil) // empty schedule; 10 slot occurrences x 8B
	// Future wants 9-byte messages: they fit in no 8-byte slot.
	prof := &future.Profile{
		Tmin: 100, TNeed: 0, BNeedBytes: 9,
		WCET:     []future.Bin{{Size: 10, Prob: 1}},
		MsgBytes: []future.Bin{{Size: 9, Prob: 1}},
	}
	r := Evaluate(st, prof, Weights{W1m: 1})
	if r.C1m != 100 {
		t.Errorf("C1m = %v, want 100 (9B messages cannot fit 8B slots)", r.C1m)
	}
	// 8-byte messages fit exactly.
	prof.MsgBytes = []future.Bin{{Size: 8, Prob: 1}}
	prof.BNeedBytes = 8
	r = Evaluate(st, prof, Weights{W1m: 1})
	if r.C1m != 0 {
		t.Errorf("C1m = %v, want 0", r.C1m)
	}
}

func TestCriterion2Messages(t *testing.T) {
	st := pinnedState(t, nil)
	// Fill every slot occurrence of the first 50-tu window.
	for round := 0; round < 5; round++ {
		if err := st.BusStateAt(0).Reserve(round, 0, 8); err != nil {
			t.Fatal(err)
		}
	}
	prof := &future.Profile{
		Tmin: 50, TNeed: 0, BNeedBytes: 16,
		WCET:     []future.Bin{{Size: 10, Prob: 1}},
		MsgBytes: []future.Bin{{Size: 4, Prob: 1}},
	}
	r := Evaluate(st, prof, Weights{W2m: 1})
	if r.C2m != 0 {
		t.Errorf("C2m = %d, want 0 (first window has no free bus bytes)", r.C2m)
	}
	if r.ShortfallM != 16 || r.Objective != 16 {
		t.Errorf("shortfallM = %d, objective = %v; want 16, 16", r.ShortfallM, r.Objective)
	}
}

func TestDefaultWeightsNormalize(t *testing.T) {
	prof := future.PaperProfile(200, 40, 16)
	w := DefaultWeights(prof)
	if w.W1P != 1 || w.W1m != 1 {
		t.Errorf("C1 weights = %v, %v; want 1, 1", w.W1P, w.W1m)
	}
	if math.Abs(w.W2P*float64(prof.TNeed)-100) > 1e-9 {
		t.Errorf("W2P*TNeed = %v, want 100", w.W2P*float64(prof.TNeed))
	}
	if math.Abs(w.W2m*float64(prof.BNeedBytes)-100) > 1e-9 {
		t.Errorf("W2m*BNeed = %v, want 100", w.W2m*float64(prof.BNeedBytes))
	}
	// Zero needs must not divide by zero.
	w = DefaultWeights(&future.Profile{Tmin: 10, WCET: []future.Bin{{Size: 1, Prob: 1}},
		MsgBytes: []future.Bin{{Size: 1, Prob: 1}}})
	if w.W2P != 0 || w.W2m != 0 {
		t.Errorf("zero-need weights = %+v", w)
	}
}

func TestReportString(t *testing.T) {
	r := Report{C1P: 12.5, C1m: 0, C2P: 40, C2m: 8, Objective: 13.37}
	s := r.String()
	if s == "" {
		t.Error("empty report string")
	}
}
