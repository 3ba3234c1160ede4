package gen

import (
	"testing"

	"incdes/internal/metrics"
)

// TestHistoryModesQualityOrdering verifies the design intent of the three
// history modes: an MH-built existing system must leave a no-worse
// objective (against the future profile) than the adversarial ASAP
// history, measured on the base schedule before any current application.
func TestHistoryModesQualityOrdering(t *testing.T) {
	base := smallConfig()
	base.TargetUtil = 0.6

	score := func(mode HistoryMode) float64 {
		cfg := base
		cfg.History = mode
		tc, err := MakeTestCase(cfg, 21, 60, 10)
		if err != nil {
			t.Fatalf("history %q: %v", mode, err)
		}
		rep := metrics.Evaluate(tc.Base, tc.Profile, metrics.DefaultWeights(tc.Profile))
		return rep.Objective
	}

	mh := score(HistoryMH)
	asap := score(HistoryASAP)
	if mh > asap+1e-9 {
		t.Errorf("MH history scored %v, ASAP history %v; the designed history must not be worse", mh, asap)
	}
	if asap == 0 {
		t.Logf("ASAP history already optimal on this seed (asap=%v mh=%v)", asap, mh)
	}
}

func TestHistoryDefaultResolvesToMH(t *testing.T) {
	cfg := smallConfig() // History unset
	tc1, err := MakeTestCase(cfg, 33, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.History = HistoryMH
	tc2, err := MakeTestCase(cfg, 33, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc1.Base.ProcEntries()) != len(tc2.Base.ProcEntries()) {
		t.Fatal("default history differs from explicit HistoryMH")
	}
	for i := range tc1.Base.ProcEntries() {
		if tc1.Base.ProcEntries()[i] != tc2.Base.ProcEntries()[i] {
			t.Fatal("default history placement differs from explicit HistoryMH")
		}
	}
}

func TestHistoryUnknownModeRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.History = HistoryMode("bogus")
	if _, err := MakeTestCase(cfg, 1, 30, 10); err == nil {
		t.Error("unknown history mode accepted")
	}
}

func TestHistoryScatterDiffersFromASAP(t *testing.T) {
	mk := func(mode HistoryMode) *TestCase {
		cfg := smallConfig()
		cfg.History = mode
		tc, err := MakeTestCase(cfg, 9, 40, 10)
		if err != nil {
			t.Fatalf("history %q: %v", mode, err)
		}
		return tc
	}
	scatter := mk(HistoryScatter)
	asap := mk(HistoryASAP)
	// ASAP packs the first process of the first graph at its release;
	// scatter almost surely does not for at least one entry.
	same := true
	if len(scatter.Base.ProcEntries()) == len(asap.Base.ProcEntries()) {
		for i := range scatter.Base.ProcEntries() {
			if scatter.Base.ProcEntries()[i] != asap.Base.ProcEntries()[i] {
				same = false
				break
			}
		}
	} else {
		same = false
	}
	if same {
		t.Error("scatter history produced the identical schedule to ASAP")
	}
}
