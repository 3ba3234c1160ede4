package tm

import "testing"

func TestMinMax(t *testing.T) {
	if got := Min(3, 5); got != 3 {
		t.Errorf("Min(3,5) = %v, want 3", got)
	}
	if got := Min(5, 3); got != 3 {
		t.Errorf("Min(5,3) = %v, want 3", got)
	}
	if got := Max(3, 5); got != 5 {
		t.Errorf("Max(3,5) = %v, want 5", got)
	}
	if got := Max(-1, -7); got != -1 {
		t.Errorf("Max(-1,-7) = %v, want -1", got)
	}
}

func TestGCD(t *testing.T) {
	tests := []struct{ a, b, want Time }{
		{12, 18, 6},
		{18, 12, 6},
		{7, 13, 1},
		{0, 5, 5},
		{5, 0, 5},
		{40, 40, 40},
	}
	for _, tc := range tests {
		if got := GCD(tc.a, tc.b); got != tc.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLCM(t *testing.T) {
	tests := []struct{ a, b, want Time }{
		{4, 6, 12},
		{1, 9, 9},
		{20, 50, 100},
		{40, 40, 40},
	}
	for _, tc := range tests {
		if got, err := LCM(tc.a, tc.b); err != nil || got != tc.want {
			t.Errorf("LCM(%d,%d) = %d, %v; want %d", tc.a, tc.b, got, err, tc.want)
		}
	}
}

// A non-positive argument is an error, not a panic.
func TestLCMPanicsOnNonPositive(t *testing.T) {
	for _, args := range [][2]Time{{0, 3}, {3, 0}, {-4, 6}} {
		if got, err := LCM(args[0], args[1]); err == nil {
			t.Errorf("LCM(%d, %d) = %d, want an error", args[0], args[1], got)
		}
	}
}

func TestLCMAll(t *testing.T) {
	if got, err := LCMAll([]Time{4, 6, 10}); err != nil || got != 60 {
		t.Errorf("LCMAll = %d, %v; want 60", got, err)
	}
	if got, err := LCMAll([]Time{7}); err != nil || got != 7 {
		t.Errorf("LCMAll single = %d, %v; want 7", got, err)
	}
	if got, err := LCMAll([]Time{-7}); err == nil {
		t.Errorf("LCMAll of a single negative value = %d, want an error", got)
	}
	if got, err := LCMAll([]Time{1000, 4611686018427391}); err == nil {
		t.Errorf("LCMAll beyond Infinity = %d, want an error", got)
	}
}

// An empty slice is an error, not a panic.
func TestLCMAllPanicsOnEmpty(t *testing.T) {
	if got, err := LCMAll(nil); err == nil {
		t.Errorf("LCMAll(nil) = %d, want an error", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(42).String(); got != "42tu" {
		t.Errorf("Time.String = %q, want 42tu", got)
	}
}
