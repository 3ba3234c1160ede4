package bench

import "testing"

// TestPeakRSSPositive: a running process has a nonzero peak footprint
// on every platform (procfs or the Go heap fallback).
func TestPeakRSSPositive(t *testing.T) {
	if rss := PeakRSS(); rss <= 0 {
		t.Fatalf("PeakRSS() = %d, want > 0", rss)
	}
}
