package tm

import (
	"fmt"
	"sort"
)

// Interval is the half-open time range [Start, End).
type Interval struct {
	Start Time
	End   Time
}

// Iv is shorthand for constructing an Interval.
func Iv(start, end Time) Interval { return Interval{Start: start, End: end} }

// Len returns the length of the interval; it is never negative for a
// well-formed interval.
func (iv Interval) Len() Time { return iv.End - iv.Start }

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Contains reports whether t lies inside the half-open interval.
func (iv Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// Overlaps reports whether iv and other share at least one point.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// Intersect returns the overlap of iv and other (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	r := Interval{Start: Max(iv.Start, other.Start), End: Min(iv.End, other.End)}
	if r.Empty() {
		return Interval{}
	}
	return r
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Start, iv.End) }

// Set is an ordered collection of disjoint, non-adjacent, non-empty
// intervals. The zero value is an empty set ready to use. The scheduler
// uses a Set per processor to track busy time; the slack analyzer inverts
// it to obtain free time.
type Set struct {
	ivs []Interval // sorted by Start, pairwise disjoint and non-adjacent
}

// NewSet returns a set containing the given intervals (merged as needed).
func NewSet(ivs ...Interval) *Set {
	s := &Set{}
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{ivs: make([]Interval, len(s.ivs))}
	copy(c.ivs, s.ivs)
	return c
}

// Len returns the number of maximal intervals in the set.
func (s *Set) Len() int { return len(s.ivs) }

// Intervals returns the maximal intervals in ascending order.
// The returned slice must not be modified.
func (s *Set) Intervals() []Interval { return s.ivs }

// Total returns the summed length of all intervals.
func (s *Set) Total() Time {
	var t Time
	for _, iv := range s.ivs {
		t += iv.Len()
	}
	return t
}

// search returns the index of the first interval with End > t.
func (s *Set) search(t Time) int {
	return sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > t })
}

// Contains reports whether t is covered by the set.
func (s *Set) Contains(t Time) bool {
	i := s.search(t)
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// OverlapsAny reports whether iv intersects any interval in the set.
func (s *Set) OverlapsAny(iv Interval) bool {
	if iv.Empty() {
		return false
	}
	i := s.search(iv.Start)
	return i < len(s.ivs) && s.ivs[i].Overlaps(iv)
}

// Add inserts iv into the set, merging with any overlapping or adjacent
// intervals. Empty intervals are ignored. It works in place: a merge
// overwrites the first merged interval and closes the gap behind it, and
// a lone interval shifts the tail right by one, so Add allocates only
// when the set grows past its backing array's capacity.
func (s *Set) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Find the run of intervals that overlap or touch iv.
	lo := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End >= iv.Start })
	hi := lo
	for hi < len(s.ivs) && s.ivs[hi].Start <= iv.End {
		iv.Start = Min(iv.Start, s.ivs[hi].Start)
		iv.End = Max(iv.End, s.ivs[hi].End)
		hi++
	}
	if hi > lo {
		s.ivs[lo] = iv
		s.ivs = append(s.ivs[:lo+1], s.ivs[hi:]...)
		return
	}
	s.ivs = append(s.ivs, Interval{})
	copy(s.ivs[lo+1:], s.ivs[lo:])
	s.ivs[lo] = iv
}

// Insert adds iv and reports an error if it overlaps existing content.
// This is the reservation primitive: double-booking a processor is a bug.
func (s *Set) Insert(iv Interval) error {
	if iv.Empty() {
		return fmt.Errorf("tm: insert of empty interval %v", iv)
	}
	if s.OverlapsAny(iv) {
		return fmt.Errorf("tm: interval %v overlaps existing reservation", iv)
	}
	s.Add(iv)
	return nil
}

// Remove deletes iv from the set, splitting intervals as needed. It
// works in place: removing an interval that was previously Inserted
// restores the set exactly and (except when a split grows the interval
// count past the backing array's capacity) performs no allocation —
// the property the scheduler's transaction rollback relies on.
func (s *Set) Remove(iv Interval) {
	if iv.Empty() || len(s.ivs) == 0 {
		return
	}
	// The run [lo, hi) of intervals overlapping iv, and the surviving
	// head/tail pieces of its first and last members.
	lo := s.search(iv.Start)
	hi := lo
	var head, tail Interval
	for hi < len(s.ivs) && s.ivs[hi].Start < iv.End {
		cur := s.ivs[hi]
		if cur.Start < iv.Start {
			head = Interval{Start: cur.Start, End: iv.Start}
		}
		if cur.End > iv.End {
			tail = Interval{Start: iv.End, End: cur.End}
		}
		hi++
	}
	if hi == lo {
		return // nothing overlaps
	}
	var rep [2]Interval
	n := 0
	if !head.Empty() {
		rep[n] = head
		n++
	}
	if !tail.Empty() {
		rep[n] = tail
		n++
	}
	if removed := hi - lo; n <= removed {
		copy(s.ivs[lo:], rep[:n])
		s.ivs = append(s.ivs[:lo+n], s.ivs[hi:]...)
	} else {
		// One interval split into two: shift the tail right by one.
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[lo+2:], s.ivs[lo+1:])
		s.ivs[lo], s.ivs[lo+1] = rep[0], rep[1]
	}
}

// Gaps returns the maximal free intervals inside window that are not
// covered by the set, in ascending order.
func (s *Set) Gaps(window Interval) []Interval {
	return s.AppendGaps(nil, window)
}

// AppendGaps appends the maximal free intervals inside window to buf and
// returns the extended slice. It is the allocation-reusing form of Gaps
// for callers that recompute slack once per candidate evaluation.
func (s *Set) AppendGaps(buf []Interval, window Interval) []Interval {
	cursor := window.Start
	i := s.search(window.Start)
	for ; i < len(s.ivs) && s.ivs[i].Start < window.End; i++ {
		iv := s.ivs[i]
		if iv.Start > cursor {
			buf = append(buf, Interval{Start: cursor, End: iv.Start})
		}
		cursor = Max(cursor, iv.End)
	}
	if cursor < window.End {
		buf = append(buf, Interval{Start: cursor, End: window.End})
	}
	return buf
}

// FirstFit returns the earliest start s0 >= earliest such that
// [s0, s0+dur) is free and s0+dur <= latestEnd. ok is false if no such
// placement exists. A zero dur fits at earliest whenever earliest <= latestEnd.
func (s *Set) FirstFit(earliest, dur, latestEnd Time) (Time, bool) {
	if dur < 0 || earliest+dur > latestEnd {
		return 0, false
	}
	start := earliest
	i := s.search(start)
	for i < len(s.ivs) {
		iv := s.ivs[i]
		if iv.Start >= start+dur {
			break // the gap before iv fits
		}
		if iv.End > start {
			start = iv.End // pushed past this busy interval
			if start+dur > latestEnd {
				return 0, false
			}
		}
		i++
	}
	return start, true
}

func (s *Set) String() string {
	return fmt.Sprint(s.ivs)
}
