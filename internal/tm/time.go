// Package tm provides the integer time base used throughout the library:
// a Time scalar, half-open intervals, and sets of disjoint intervals with
// the gap and first-fit queries the scheduler and the slack metrics need.
//
// All quantities are expressed in abstract "time units" (tu). The paper's
// synthetic benchmarks use WCETs of 20-150 tu; one tu can be read as one
// microsecond without changing any result.
package tm

import (
	"errors"
	"fmt"
)

// Time is a point in time or a duration, in integer time units.
// Using a single integer base keeps static cyclic schedules exact:
// there is no rounding anywhere in the pipeline.
type Time int64

// Infinity is a sentinel larger than any schedule horizon.
const Infinity Time = 1<<62 - 1

func (t Time) String() string { return fmt.Sprintf("%dtu", int64(t)) }

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// GCD returns the greatest common divisor of a and b (non-negative inputs).
func GCD(a, b Time) Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b. It reports an error
// if either argument is not positive or the result exceeds Infinity.
func LCM(a, b Time) (Time, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("tm: LCM of a non-positive value (%d, %d)", a, b)
	}
	q := a / GCD(a, b)
	if q > Infinity/b {
		return 0, fmt.Errorf("tm: LCM of %d and %d exceeds %d", a, b, Infinity)
	}
	return q * b, nil
}

// errNoValues is LCMAll's error for an empty slice.
var errNoValues = errors.New("tm: LCM of no values")

// LCMAll returns the least common multiple of all values, with LCM's
// errors. An empty slice is an error too.
func LCMAll(vs []Time) (Time, error) {
	if len(vs) == 0 {
		return 0, errNoValues
	}
	l := Time(1)
	for _, v := range vs {
		var err error
		if l, err = LCM(l, v); err != nil {
			return 0, err
		}
	}
	return l, nil
}
