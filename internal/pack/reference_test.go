package pack

import "math"

// Result reports how a packing attempt went.
type Result struct {
	PackedTotal   int64
	UnpackedTotal int64
	PackedCount   int
	UnpackedCount int
	// Assignment[i] is the bin index item i was placed into, or -1.
	Assignment []int
}

// UnpackedFraction returns the fraction (0..1) of total item size that
// could not be packed. An empty item set packs trivially (fraction 0).
func (r Result) UnpackedFraction() float64 {
	total := r.PackedTotal + r.UnpackedTotal
	if total == 0 {
		return 0
	}
	return float64(r.UnpackedTotal) / float64(total)
}

// BestFit packs items (in the given order) into bins using the best-fit
// policy: each item goes into the bin with the smallest remaining capacity
// that still fits it, the lowest-index such bin on ties. Items that fit
// nowhere are left unpacked. The bins slice is not modified. It scans
// every bin for every item: the reference BestFitUnpacked is held to.
func BestFit(items, bins []int64) Result {
	remaining := append([]int64(nil), bins...)
	res := Result{Assignment: make([]int, len(items))}
	for i, size := range items {
		best := -1
		for b, free := range remaining {
			if free >= size && (best == -1 || free < remaining[best]) {
				best = b
			}
		}
		res.Assignment[i] = best
		if best == -1 {
			res.UnpackedTotal += size
			res.UnpackedCount++
			continue
		}
		remaining[best] -= size
		res.PackedTotal += size
		res.PackedCount++
	}
	return res
}

// Certify reports whether the all-fit certificate holds over bins, one
// per slice element: when it does, best-fit leaves none of the runs'
// items unpacked, so BestFitUnpacked of the items over bins is +0. Each
// run is one pass over the bins that stops once U_r reaches need_r. It is
// the certificate as the package comment states it, the reference
// CertifyCaps and CertifyGroups are held to.
func (rs Runs) Certify(bins []int64) bool {
	for i := len(rs) - 1; i >= 0; i-- {
		s, left := rs[i].size, rs[i].need
		if left == math.MaxInt64 {
			return false
		}
		for _, b := range bins {
			// left > 0 and b/s ≥ 0, so the difference cannot overflow.
			if b >= s {
				if left -= b / s; left <= 0 {
					break
				}
			}
		}
		if left > 0 {
			return false
		}
	}
	return true
}
