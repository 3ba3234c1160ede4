package slack

import (
	"math/rand"
	"reflect"
	"testing"

	"incdes/internal/tm"
)

// windowSlackRef is the double loop WindowSlackInto's sweep replaced,
// kept as its reference: every full window (one clipped window when the
// horizon is shorter than tmin) intersected with every idle interval.
func windowSlackRef(idle []tm.Interval, tmin, horizon tm.Time) []tm.Time {
	n := int(horizon / tmin)
	if n == 0 {
		n = 1
		tmin = horizon
	}
	out := make([]tm.Time, n)
	for w := range out {
		win := tm.Iv(tm.Time(w)*tmin, tm.Time(w+1)*tmin)
		for _, iv := range idle {
			out[w] += iv.Intersect(win).Len()
		}
	}
	return out
}

// gapsFrom decodes sorted, disjoint idle intervals from byte pairs: the
// distance from the previous interval's end (0 makes them adjacent) and
// the length minus one. The intervals may run past any horizon.
func gapsFrom(b []byte) []tm.Interval {
	var out []tm.Interval
	end := tm.Time(0)
	for i := 0; i+1 < len(b); i += 2 {
		start := end + tm.Time(b[i])
		end = start + 1 + tm.Time(b[i+1])
		out = append(out, tm.Iv(start, end))
	}
	return out
}

// checkWindowSlack compares WindowSlackInto, into a fresh and into a
// dirty reused buffer, with the reference.
func checkWindowSlack(t *testing.T, idle []tm.Interval, tmin, horizon tm.Time) {
	t.Helper()
	want := windowSlackRef(idle, tmin, horizon)
	if got := WindowSlack(idle, tmin, horizon); !reflect.DeepEqual(got, want) {
		t.Fatalf("WindowSlack(%v, %d, %d) = %v, want %v", idle, tmin, horizon, got, want)
	}
	dirty := []tm.Time{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	if got := WindowSlackInto(dirty, idle, tmin, horizon); !reflect.DeepEqual(got, want) {
		t.Fatalf("WindowSlackInto(reused, %v, %d, %d) = %v, want %v", idle, tmin, horizon, got, want)
	}
}

// TestWindowSlackMatchesReference holds the sweep to the double loop on
// random sorted, disjoint intervals: horizons that are multiples of tmin
// and ones that are not (nothing past the last full window counts),
// horizons shorter than tmin (one clipped window), intervals that run
// past the horizon, adjacent intervals and none at all.
func TestWindowSlackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkWindowSlack(t, nil, 40, 240)
	checkWindowSlack(t, []tm.Interval{tm.Iv(0, 30)}, 500, 100)
	checkWindowSlack(t, []tm.Interval{tm.Iv(0, 10), tm.Iv(10, 20), tm.Iv(95, 130)}, 30, 100)
	for i := 0; i < 2000; i++ {
		b := make([]byte, 2*rng.Intn(16))
		rng.Read(b)
		tmin := tm.Time(1 + rng.Intn(120))
		horizon := tm.Time(rng.Intn(600))
		checkWindowSlack(t, gapsFrom(b), tmin, horizon)
	}
}

// FuzzWindowSlack holds WindowSlackInto's sweep to the double loop over
// random sorted, disjoint intervals, tmin and horizon.
func FuzzWindowSlack(f *testing.F) {
	f.Add([]byte{0, 9, 30, 59}, uint16(50), uint16(100))
	f.Add([]byte{0, 29}, uint16(500), uint16(100))
	f.Add([]byte{3, 200, 0, 4, 1, 0, 90, 12}, uint16(7), uint16(333))
	f.Fuzz(func(t *testing.T, gaps []byte, tmin, horizon uint16) {
		checkWindowSlack(t, gapsFrom(gaps), tm.Time(1+tmin%400), tm.Time(horizon%4000))
	})
}
