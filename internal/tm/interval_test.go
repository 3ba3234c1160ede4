package tm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Iv(10, 20)
	if iv.Len() != 10 {
		t.Errorf("Len = %d, want 10", iv.Len())
	}
	if iv.Empty() {
		t.Error("non-empty interval reported Empty")
	}
	if !Iv(5, 5).Empty() {
		t.Error("degenerate interval not Empty")
	}
	if !iv.Contains(10) || iv.Contains(20) || iv.Contains(9) {
		t.Error("Contains violates half-open semantics")
	}
}

func TestIntervalOverlaps(t *testing.T) {
	tests := []struct {
		a, b Interval
		want bool
	}{
		{Iv(0, 10), Iv(5, 15), true},
		{Iv(0, 10), Iv(10, 20), false}, // touching is not overlapping
		{Iv(0, 10), Iv(2, 3), true},
		{Iv(5, 6), Iv(0, 100), true},
		{Iv(0, 1), Iv(2, 3), false},
	}
	for _, tc := range tests {
		if got := tc.a.Overlaps(tc.b); got != tc.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Overlaps(tc.a); got != tc.want {
			t.Errorf("Overlaps not symmetric for %v,%v", tc.a, tc.b)
		}
	}
}

func TestIntervalIntersect(t *testing.T) {
	if got := Iv(0, 10).Intersect(Iv(5, 15)); got != Iv(5, 10) {
		t.Errorf("Intersect = %v, want [5,10)", got)
	}
	if got := Iv(0, 10).Intersect(Iv(20, 30)); !got.Empty() {
		t.Errorf("disjoint Intersect = %v, want empty", got)
	}
}

func TestSetAddMergesOverlapping(t *testing.T) {
	s := NewSet(Iv(0, 10), Iv(5, 15))
	want := []Interval{Iv(0, 15)}
	if !reflect.DeepEqual(s.Intervals(), want) {
		t.Errorf("Intervals = %v, want %v", s.Intervals(), want)
	}
}

func TestSetAddMergesAdjacent(t *testing.T) {
	s := NewSet(Iv(0, 10), Iv(10, 20))
	if s.Len() != 1 || s.Total() != 20 {
		t.Errorf("adjacent intervals not merged: %v", s)
	}
}

func TestSetAddDisjointKeepsOrder(t *testing.T) {
	s := NewSet(Iv(20, 30), Iv(0, 5), Iv(10, 12))
	want := []Interval{Iv(0, 5), Iv(10, 12), Iv(20, 30)}
	if !reflect.DeepEqual(s.Intervals(), want) {
		t.Errorf("Intervals = %v, want %v", s.Intervals(), want)
	}
}

func TestSetAddBridgesManyIntervals(t *testing.T) {
	s := NewSet(Iv(0, 2), Iv(4, 6), Iv(8, 10), Iv(20, 22))
	s.Add(Iv(1, 9))
	want := []Interval{Iv(0, 10), Iv(20, 22)}
	if !reflect.DeepEqual(s.Intervals(), want) {
		t.Errorf("Intervals = %v, want %v", s.Intervals(), want)
	}
}

func TestSetInsertRejectsOverlap(t *testing.T) {
	s := NewSet(Iv(10, 20))
	if err := s.Insert(Iv(15, 25)); err == nil {
		t.Error("Insert of overlapping interval did not fail")
	}
	if err := s.Insert(Iv(20, 25)); err != nil {
		t.Errorf("Insert of adjacent interval failed: %v", err)
	}
	if err := s.Insert(Iv(5, 5)); err == nil {
		t.Error("Insert of empty interval did not fail")
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(Iv(10, 20), Iv(30, 40))
	for _, tc := range []struct {
		t    Time
		want bool
	}{{9, false}, {10, true}, {19, true}, {20, false}, {25, false}, {30, true}, {39, true}, {40, false}} {
		if got := s.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestSetRemove(t *testing.T) {
	s := NewSet(Iv(0, 100))
	s.Remove(Iv(20, 30))
	want := []Interval{Iv(0, 20), Iv(30, 100)}
	if !reflect.DeepEqual(s.Intervals(), want) {
		t.Errorf("after Remove: %v, want %v", s.Intervals(), want)
	}
	s.Remove(Iv(0, 20)) // remove an exact interval
	if s.Total() != 70 {
		t.Errorf("Total = %d, want 70", s.Total())
	}
	s.Remove(Iv(25, 35)) // straddles a boundary
	want = []Interval{Iv(35, 100)}
	if !reflect.DeepEqual(s.Intervals(), want) {
		t.Errorf("after straddling Remove: %v, want %v", s.Intervals(), want)
	}
}

func TestSetGaps(t *testing.T) {
	s := NewSet(Iv(10, 20), Iv(30, 40))
	got := s.Gaps(Iv(0, 50))
	want := []Interval{Iv(0, 10), Iv(20, 30), Iv(40, 50)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Gaps = %v, want %v", got, want)
	}
}

func TestSetGapsWindowClipping(t *testing.T) {
	s := NewSet(Iv(10, 20))
	got := s.Gaps(Iv(15, 25))
	want := []Interval{Iv(20, 25)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Gaps = %v, want %v", got, want)
	}
	if gaps := s.Gaps(Iv(12, 18)); gaps != nil {
		t.Errorf("fully covered window produced gaps %v", gaps)
	}
	if gaps := NewSet().Gaps(Iv(5, 8)); !reflect.DeepEqual(gaps, []Interval{Iv(5, 8)}) {
		t.Errorf("empty set gaps = %v", gaps)
	}
}

func TestSetFirstFit(t *testing.T) {
	s := NewSet(Iv(10, 20), Iv(30, 40))
	tests := []struct {
		earliest, dur, latest Time
		want                  Time
		ok                    bool
	}{
		{0, 5, 100, 0, true},    // fits before first busy interval
		{0, 10, 100, 0, true},   // exactly fills the first gap
		{0, 11, 100, 40, true},  // too big for both 10-long gaps
		{0, 15, 100, 40, true},  // pushed past both busy intervals
		{12, 5, 100, 20, true},  // earliest inside a busy interval
		{0, 15, 50, 40, false},  // would end at 55 > 50
		{0, 10, 10, 0, true},    // end exactly at bound
		{45, 100, 60, 0, false}, // does not fit at all
	}
	for _, tc := range tests {
		got, ok := s.FirstFit(tc.earliest, tc.dur, tc.latest)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("FirstFit(%d,%d,%d) = (%d,%v), want (%d,%v)",
				tc.earliest, tc.dur, tc.latest, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSetClone(t *testing.T) {
	s := NewSet(Iv(0, 10))
	c := s.Clone()
	c.Add(Iv(20, 30))
	if s.Len() != 1 {
		t.Error("Clone is not independent of original")
	}
	if c.Len() != 2 {
		t.Error("Clone lost data")
	}
}

// randomSet builds a set from n random operations and returns it with a
// reference boolean array over [0, span).
func randomSet(rng *rand.Rand, n int, span Time) (*Set, []bool) {
	s := NewSet()
	ref := make([]bool, span)
	for i := 0; i < n; i++ {
		a := Time(rng.Int63n(int64(span)))
		b := a + 1 + Time(rng.Int63n(20))
		if b > span {
			b = span
		}
		if rng.Intn(3) == 0 {
			s.Remove(Iv(a, b))
			for t := a; t < b; t++ {
				ref[t] = false
			}
		} else {
			s.Add(Iv(a, b))
			for t := a; t < b; t++ {
				ref[t] = true
			}
		}
	}
	return s, ref
}

// TestSetQuickAgainstReference cross-checks the interval set against a
// dense boolean-array model under random Add/Remove sequences.
func TestSetQuickAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const span = Time(200)
		s, ref := randomSet(rng, 40, span)
		for tt := Time(0); tt < span; tt++ {
			if s.Contains(tt) != ref[tt] {
				t.Logf("seed %d: Contains(%d) = %v, ref %v", seed, tt, s.Contains(tt), ref[tt])
				return false
			}
		}
		// Invariants: sorted, disjoint, non-adjacent, non-empty.
		prev := Interval{Start: -1, End: -1}
		for _, iv := range s.Intervals() {
			if iv.Empty() {
				return false
			}
			if iv.Start <= prev.End && prev.End >= 0 {
				return false
			}
			prev = iv
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSetQuickGapsPartition checks that for any random set, the gaps plus
// the busy intervals exactly partition the window.
func TestSetQuickGapsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const span = Time(300)
		s, _ := randomSet(rng, 30, span)
		window := Iv(0, span)
		var busyIn Time
		for _, iv := range s.Intervals() {
			busyIn += iv.Intersect(window).Len()
		}
		var gapTotal Time
		for _, g := range s.Gaps(window) {
			gapTotal += g.Len()
			if s.OverlapsAny(g) {
				return false // a gap must be free
			}
		}
		return busyIn+gapTotal == window.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSetQuickFirstFitSound checks that every FirstFit result is actually
// free, within bounds, and that no earlier feasible start exists.
func TestSetQuickFirstFitSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const span = Time(300)
		s, _ := randomSet(rng, 30, span)
		earliest := Time(rng.Int63n(int64(span)))
		dur := 1 + Time(rng.Int63n(40))
		latest := earliest + Time(rng.Int63n(int64(span)))
		st, ok := s.FirstFit(earliest, dur, latest)
		if !ok {
			// Verify by brute force that nothing fits.
			for c := earliest; c+dur <= latest; c++ {
				if !s.OverlapsAny(Iv(c, c+dur)) {
					return false
				}
			}
			return true
		}
		if st < earliest || st+dur > latest || s.OverlapsAny(Iv(st, st+dur)) {
			return false
		}
		for c := earliest; c < st; c++ {
			if c+dur <= latest && !s.OverlapsAny(Iv(c, c+dur)) {
				return false // found an earlier fit: not "first"
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
