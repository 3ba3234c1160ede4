package tm

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzHorizon is the time range FuzzSetOps works in: small enough for a
// bitmap reference, large enough for sets of many intervals.
const fuzzHorizon = 64

// refRuns returns the maximal runs of set points of a bitmap, the
// intervals a Set holding the same points must report.
func refRuns(ref []bool) []Interval {
	var out []Interval
	for t := 0; t < len(ref); t++ {
		if !ref[t] {
			continue
		}
		start := t
		for t < len(ref) && ref[t] {
			t++
		}
		out = append(out, Iv(Time(start), Time(t)))
	}
	return out
}

// FuzzSetOps runs a byte-coded sequence of Insert, Add and Remove on a
// Set against a bitmap over [0, fuzzHorizon). After every op the set's
// intervals must be the bitmap's maximal runs. Insert must fail exactly
// when the interval overlaps the set, and leave the set unchanged then;
// a successful Insert undone by Remove must restore the previous
// intervals exactly (the scheduler's rollback relies on it), and the
// interval is inserted again afterwards.
//
// Each op is three bytes: the op code (0 Insert, 1 Add, 2 Remove, mod 3),
// the start (mod fuzzHorizon) and the length (1 to 16, clipped to the
// horizon).
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 10, 4, 0, 20, 4, 0, 14, 5, 2, 12, 10})
	f.Add([]byte{0, 10, 3, 0, 30, 3, 1, 14, 1, 0, 16, 0, 0, 40, 2, 1, 34, 5})
	f.Add([]byte{1, 0, 15, 1, 30, 15, 0, 15, 15, 2, 5, 40, 1, 63, 3})
	f.Add([]byte{0, 8, 8, 0, 0, 8, 0, 16, 8, 2, 4, 16, 0, 6, 2, 1, 2, 9})
	f.Add([]byte{0, 1, 1, 0, 3, 1, 0, 5, 1, 0, 7, 1, 0, 2, 1, 0, 4, 1, 0, 6, 1})

	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSet()
		ref := make([]bool, fuzzHorizon)
		check := func(step int, what string) {
			t.Helper()
			if got, want := s.Intervals(), refRuns(ref); !slices.Equal(got, want) {
				t.Fatalf("op %d (%s): intervals %v, want %v", step, what, got, want)
			}
		}
		mark := func(iv Interval, v bool) {
			for p := iv.Start; p < iv.End; p++ {
				ref[p] = v
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			start := Time(ops[i+1] % fuzzHorizon)
			iv := Iv(start, Min(start+1+Time(ops[i+2]%16), fuzzHorizon))
			step := i / 3
			switch ops[i] % 3 {
			case 0:
				prev := slices.Clone(s.Intervals())
				overlaps := slices.Contains(ref[iv.Start:iv.End], true)
				err := s.Insert(iv)
				if (err != nil) != overlaps {
					t.Fatalf("op %d: Insert(%v) error %v, overlap %v", step, iv, err, overlaps)
				}
				if err != nil {
					check(step, fmt.Sprintf("rejected Insert(%v)", iv))
					continue
				}
				mark(iv, true)
				check(step, fmt.Sprintf("Insert(%v)", iv))
				s.Remove(iv)
				if got := s.Intervals(); !slices.Equal(got, prev) {
					t.Fatalf("op %d: Remove(%v) after Insert left %v, want %v", step, iv, got, prev)
				}
				if err := s.Insert(iv); err != nil {
					t.Fatalf("op %d: Insert(%v) again after Remove: %v", step, iv, err)
				}
				check(step, fmt.Sprintf("Insert(%v) again", iv))
			case 1:
				s.Add(iv)
				mark(iv, true)
				check(step, fmt.Sprintf("Add(%v)", iv))
			case 2:
				s.Remove(iv)
				mark(iv, false)
				check(step, fmt.Sprintf("Remove(%v)", iv))
			}
		}
	})
}

// TestSetInsertRemoveAllocs pins that the interval set works in place:
// once the backing array has room, an Insert and the Remove that undoes
// it allocate nothing, whether the interval stands alone, extends a
// neighbour or bridges two.
func TestSetInsertRemoveAllocs(t *testing.T) {
	s := NewSet(Iv(0, 10), Iv(20, 30), Iv(40, 50), Iv(60, 70))
	cases := []Interval{
		Iv(32, 36), // alone: opens a slot
		Iv(30, 35), // extends [20,30)
		Iv(50, 60), // bridges [40,50) and [60,70)
	}
	for _, iv := range cases {
		// Warm up so the backing array has room for one more interval.
		if err := s.Insert(iv); err != nil {
			t.Fatal(err)
		}
		s.Remove(iv)
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.Insert(iv); err != nil {
				t.Fatal(err)
			}
			s.Remove(iv)
		})
		if allocs != 0 {
			t.Errorf("Insert/Remove of %v allocates %.1f objects per cycle, want 0", iv, allocs)
		}
	}
}
