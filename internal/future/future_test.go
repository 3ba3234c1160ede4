package future

import (
	"testing"

	"incdes/internal/tm"
)

func TestPaperProfileValidates(t *testing.T) {
	p := PaperProfile(200, 40, 16)
	if err := p.Validate(); err != nil {
		t.Fatalf("paper profile invalid: %v", err)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"zero tmin", func(p *Profile) { p.Tmin = 0 }},
		{"negative tneed", func(p *Profile) { p.TNeed = -1 }},
		{"empty wcet dist", func(p *Profile) { p.WCET = nil }},
		{"probs not 1", func(p *Profile) { p.WCET[0].Prob = 0.5 }},
		{"zero size bin", func(p *Profile) { p.MsgBytes[0].Size = 0 }},
		{"negative prob", func(p *Profile) {
			p.WCET[0].Prob = -0.1
			p.WCET[1].Prob += 0.2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := PaperProfile(200, 40, 16)
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

func TestLargestAppWCETsCoversDemand(t *testing.T) {
	p := PaperProfile(100, 40, 16)
	items := p.LargestAppWCETs(400) // 4 windows -> demand 160
	var total int64
	for i, it := range items {
		total += it
		if i > 0 && items[i-1] < it {
			t.Error("items not in decreasing order")
		}
	}
	if total < 160 {
		t.Errorf("total = %d, want >= 160", total)
	}
	// Overshoot is bounded by the smallest WCET bin (20).
	if total >= 160+20 {
		t.Errorf("total = %d overshoots demand 160 by more than one small item", total)
	}
}

func TestLargestAppDeterministic(t *testing.T) {
	p := PaperProfile(100, 40, 16)
	a := p.LargestAppWCETs(800)
	b := p.LargestAppWCETs(800)
	if len(a) != len(b) {
		t.Fatal("expansion not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("expansion not deterministic")
		}
	}
}

func TestLargestAppMsgBytes(t *testing.T) {
	p := PaperProfile(100, 40, 16)
	items := p.LargestAppMsgBytes(200) // 2 windows -> 32 bytes demand
	var total int64
	for i, it := range items {
		total += it
		if i > 0 && items[i-1] < it {
			t.Error("items not in decreasing order")
		}
	}
	if total < 32 || total >= 32+2 {
		t.Errorf("message demand total = %d, want [32,34)", total)
	}
}

func TestLargestAppShortHorizon(t *testing.T) {
	p := PaperProfile(1000, 40, 16)
	items := p.LargestAppWCETs(100) // horizon < Tmin: one window
	var total int64
	for _, it := range items {
		total += it
	}
	if total < 40 {
		t.Errorf("short-horizon demand = %d, want >= 40", total)
	}
}

func TestExpandZeroDemand(t *testing.T) {
	p := &Profile{Tmin: 10, TNeed: 0, BNeedBytes: 0,
		WCET: []Bin{{Size: 10, Prob: 1}}, MsgBytes: []Bin{{Size: 2, Prob: 1}}}
	if items := p.LargestAppWCETs(100); len(items) != 0 {
		t.Errorf("zero demand produced items %v", items)
	}
}

func TestExpandProportions(t *testing.T) {
	// Single-size distribution must produce demand/size items.
	p := &Profile{Tmin: tm.Time(100), TNeed: 50, BNeedBytes: 0,
		WCET: []Bin{{Size: 10, Prob: 1}}, MsgBytes: []Bin{{Size: 2, Prob: 1}}}
	items := p.LargestAppWCETs(100)
	if len(items) != 5 {
		t.Errorf("%d items, want 5", len(items))
	}
}
