// Package pack provides the bin-packing routines behind the paper's first
// design criterion: the processes (or messages) of the largest expected
// future application are the objects, and the slack intervals (or free
// slot capacities) of a design alternative are the containers. The paper
// prescribes the best-fit policy, fed with the items in decreasing size.
//
// BestFitUnpacked is the packer the metrics run: an exact best-fit over a
// sorted multiset of remaining capacities, O(B log B + I log B) for I
// items and B bins. The tests hold it against a reference kept with them:
// the plain per-item scan of every bin, which also records which bin each
// item went to.
//
// Sizes are plain int64 so the same packer serves time units (process
// slack) and bytes (bus slack).
package pack

import "slices"

// BestFitUnpacked returns the unpacked fraction of packing items (in the
// given order) into bins with the best-fit policy, without building an
// assignment. scratch is reused for the remaining capacities and the
// (possibly grown) slice is returned for the next call; bins is not
// modified. This is the allocation-free form the metrics run once per
// candidate design.
//
// The remaining capacities are kept as a sorted multiset: bins is copied
// and sorted once, and each item binary-searches the smallest capacity
// that fits it, which is removed and replaced by the leftover capacity
// at its sorted position. The leftover is smaller, so that position is at
// or before the removed one and the update is one copy shift.
//
// The value is bit-identical to the per-bin scan's, which puts each item
// into the lowest-index bin among those with the smallest remaining
// capacity that fits. Best-fit's whole state is the multiset of remaining
// capacities: two bins with equal remaining capacity are interchangeable
// for every later item, so the scan's tie-break may pick a different bin
// but leaves the same multiset. Every item is therefore packed or left
// unpacked exactly as the scan does, the totals accumulate over the same
// items in the same order, and the fraction is the same expression.
//
// Item sizes must be positive (future.Profile.Validate guarantees it for
// the metrics' items); a negative size would grow a capacity and break
// the sorted order.
func BestFitUnpacked(items, bins, scratch []int64) (float64, []int64) {
	remaining := append(scratch[:0], bins...)
	slices.Sort(remaining)
	var packed, unpacked int64
	for _, size := range items {
		i, _ := slices.BinarySearch(remaining, size)
		if i == len(remaining) {
			unpacked += size
			continue
		}
		left := remaining[i] - size
		j, _ := slices.BinarySearch(remaining[:i], left)
		copy(remaining[j+1:i+1], remaining[j:i])
		remaining[j] = left
		packed += size
	}
	total := packed + unpacked
	if total == 0 {
		return 0, remaining
	}
	return float64(unpacked) / float64(total), remaining
}
