package tm

import (
	"strings"
	"testing"
)

func TestIntervalString(t *testing.T) {
	if got := Iv(3, 9).String(); got != "[3,9)" {
		t.Errorf("String = %q", got)
	}
}

func TestSetStringListsIntervals(t *testing.T) {
	s := NewSet(Iv(1, 2), Iv(5, 9))
	out := s.String()
	if !strings.Contains(out, "[1,2)") || !strings.Contains(out, "[5,9)") {
		t.Errorf("Set.String = %q", out)
	}
}

func TestFirstFitZeroDuration(t *testing.T) {
	s := NewSet(Iv(20, 30))
	start, ok := s.FirstFit(5, 0, 5)
	if !ok || start != 5 {
		t.Errorf("zero-duration FirstFit in free space = (%v,%v), want (5,true)", start, ok)
	}
	// A zero-duration placement inside a busy interval is pushed out like
	// any other, and fails when that exceeds the bound.
	busy := NewSet(Iv(0, 10))
	if _, ok := busy.FirstFit(5, 0, 5); ok {
		t.Error("zero-duration placement inside a busy interval accepted")
	}
	if _, ok := s.FirstFit(5, -1, 100); ok {
		t.Error("negative duration accepted")
	}
}

func TestRemoveNoopOutsideSet(t *testing.T) {
	s := NewSet(Iv(10, 20))
	s.Remove(Iv(30, 40))
	s.Remove(Iv(0, 5))
	s.Remove(Iv(15, 15)) // empty
	if s.Total() != 10 {
		t.Errorf("Total = %v after no-op removes", s.Total())
	}
}

func TestGapsEmptyWindow(t *testing.T) {
	s := NewSet(Iv(0, 10))
	if gaps := s.Gaps(Iv(5, 5)); gaps != nil {
		t.Errorf("empty window gaps = %v", gaps)
	}
}

func TestOverlapsAnyEmptyInterval(t *testing.T) {
	s := NewSet(Iv(0, 10))
	if s.OverlapsAny(Iv(5, 5)) {
		t.Error("empty interval overlaps")
	}
}

func TestAddEmptyIntervalIgnored(t *testing.T) {
	s := NewSet()
	s.Add(Iv(7, 7))
	s.Add(Iv(9, 3))
	if s.Len() != 0 {
		t.Errorf("empty adds produced %d intervals", s.Len())
	}
}

func TestGCDNegativeSafeUse(t *testing.T) {
	// GCD is documented for non-negative inputs; LCMAll guards zero.
	if got := GCD(0, 0); got != 0 {
		t.Errorf("GCD(0,0) = %v", got)
	}
}

func TestLCMOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LCM overflow did not panic")
		}
	}()
	LCM(Infinity-1, Infinity-2)
}
