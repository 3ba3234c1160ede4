// Package pack provides the bin-packing routines behind the paper's first
// design criterion: the processes (or messages) of the largest expected
// future application are the objects, and the slack intervals (or free
// slot capacities) of a design alternative are the containers. The paper
// prescribes the best-fit policy, fed with the items in decreasing size.
//
// There is one packer: exact best-fit over Caps, a histogram of the
// remaining capacities, placing a run of equal items at once. The
// metrics' items come from the future profile's four sizes, so a packing
// is four runs, and a run costs at most two binary searches and two
// shifts of the histogram per distinct capacity it reaches, not per item.
// BestFitUnpacked builds the histogram from B unsorted bins, an
// O(B log B) sort, and packs; a caller that keeps a histogram across
// packings patches it instead, one bin at a time: Shrink when a bin
// loses capacity and Grow, its inverse, when the bin gets it back. The
// tests hold the packer against a reference kept with them: the plain
// per-item scan of every bin, which also records which bin each item
// went to.
//
// # The all-fit certificate
//
// Most packings a design search scores leave nothing over, and one pass
// over the bins per run can prove that without packing. Write the items
// as runs (s_r, k_r) in packing order: k_r items of size s_r. Let
//
//	need_r = k_r + Σ_{q<r} k_q·⌈s_q/s_r⌉
//	U_r    = Σ ⌊b/s_r⌋ over the bins b ≥ s_r
//
// (a histogram entry counts as its N bins). If U_r ≥ need_r for every
// run r, best-fit places every item. Placing an item of size x into a
// bin lowers that bin's ⌊b/s_r⌋ by at most ⌈x/s_r⌉. So before the j-th
// item of run r (j counted from 0) is placed, the items placed so far
// have lowered U_r by at most Σ_{q<r} k_q·⌈s_q/s_r⌉ + j, and
// U_r ≥ need_r − Σ_{q<r} k_q·⌈s_q/s_r⌉ − j = k_r − j ≥ 1: some bin still
// holds at least s_r, and best-fit places an item whenever some bin fits
// it. The unpacked total is then 0, so the packer's fraction is 0/total,
// the bits of +0. The proof uses only which items come earlier, so the
// order in which the runs are checked does not matter to it; the
// predicates check the smallest size first, because its need counts
// every item and a certificate that fails usually fails there.
//
// The certificate is sufficient, not necessary: items {3, 2} fit bins
// {3, 3}, but U_2 = 2 < need_2 = 1 + ⌈3/2⌉ = 3. When it fails, the caller
// packs.
//
// It has two forms. CertifyCaps reads a histogram. CertifyGroups reads
// the bins as disjoint groups, as the metrics keep each node's slack
// intervals: U_r is the sum of the groups' terms, a group's term of run
// r being U_r over the group, capped at need_r. The caller keeps the
// terms with the groups, and CertifyGroups counts a term only when it
// first reads it, so a group that has not changed is not counted again
// and a term the pass never reaches is never counted. Both forms are
// tested against Certify, the plain pass over a bin slice, which the
// tests keep as the reference. Nothing overflows in any form: need
// saturates at math.MaxInt64, a run whose need saturates never
// certifies, CertifyCaps stops counting U_r at need_r, and CertifyGroups
// caps each term at need_r and saturates its sums at math.MaxInt64.
//
// Sizes are plain int64 so the same packer serves time units (process
// slack) and bytes (bus slack).
package pack

import (
	"math"
	"slices"
	"sort"
)

// BestFitUnpacked returns the unpacked fraction of packing items (in the
// given order) into bins with the best-fit policy, without building an
// assignment. bins is not modified. scratch is reused for a sorted copy
// of bins and for the histogram Caps.BestFitUnpacked packs, and the
// (possibly grown) slice is returned for the next call: this is the
// allocation-free form for callers that pack once per candidate design.
//
// Item sizes must be positive (future.Profile.Validate guarantees it for
// the metrics' items).
func BestFitUnpacked(items, bins, scratch []int64) (float64, []int64) {
	n := len(bins)
	scratch = slices.Grow(scratch[:0], 3*n)[:3*n]
	sorted := scratch[:n]
	copy(sorted, bins)
	// A histogram never holds more entries than there are bins, so
	// neither slice outgrows its n-element share of scratch.
	c := Caps{Size: scratch[n : n : 2*n], N: scratch[2*n : 2*n : 3*n]}
	c.Reset(sorted)
	return c.BestFitUnpacked(items), scratch
}

// Caps is a multiset of bin capacities kept as a histogram: Size holds
// the distinct capacities in ascending order and N[i] > 0 the number of
// bins of capacity Size[i]. A bin of capacity ≤ 0 fits no positive item
// and is not held.
//
// Best-fit's whole state is this multiset. Two bins with equal remaining
// capacity are interchangeable for every later item, so the per-bin scan
// that puts each item into the lowest-index bin among the smallest that
// fit may pick a different bin than the histogram does, but it leaves the
// same multiset, packs or leaves unpacked the same items, and gives the
// same fraction.
type Caps struct {
	Size []int64
	N    []int64
}

// Reset sorts bins in place and makes c their histogram.
func (c *Caps) Reset(bins []int64) {
	slices.Sort(bins)
	c.Size, c.N = c.Size[:0], c.N[:0]
	for _, b := range bins {
		if b <= 0 {
			continue
		}
		if k := len(c.Size); k > 0 && c.Size[k-1] == b {
			c.N[k-1]++
			continue
		}
		c.Size = append(c.Size, b)
		c.N = append(c.N, 1)
	}
}

// Set makes c a copy of o.
func (c *Caps) Set(o *Caps) {
	c.Size = append(c.Size[:0], o.Size...)
	c.N = append(c.N[:0], o.N...)
}

// Shrink turns one bin of capacity from into a bin of capacity to, which
// must be smaller. It panics when c holds no bin of capacity from or to
// is not smaller: either is a bug of the caller's bookkeeping.
func (c *Caps) Shrink(from, to int64) {
	i, ok := slices.BinarySearch(c.Size, from)
	if !ok || to >= from {
		panic("pack: Shrink of an absent capacity or to a capacity that is not smaller")
	}
	c.move(i, 1, to)
}

// Grow turns one bin of capacity from into a bin of capacity to, which
// must be larger: the inverse of Shrink. A from ≤ 0 is a bin c does not
// hold, since Shrink drops a bin that reaches 0, so Grow then only adds
// a bin of capacity to (if to > 0). It panics when c holds no bin of a
// positive capacity from or to is not larger: either is a bug of the
// caller's bookkeeping.
func (c *Caps) Grow(from, to int64) {
	ok := to > from
	lo, emptied := 0, false // the target's entry belongs at or above lo
	if ok && from > 0 {
		var i int
		if i, ok = slices.BinarySearch(c.Size, from); ok {
			c.N[i]--
			lo, emptied = i+1, c.N[i] == 0
		}
	}
	if !ok {
		panic("pack: Grow of an absent capacity or to a capacity that is not larger")
	}
	if to <= 0 {
		return
	}
	j, found := slices.BinarySearch(c.Size[lo:], to)
	j += lo
	switch {
	case found:
		c.N[j]++
		if emptied {
			c.Size = slices.Delete(c.Size, lo-1, lo)
			c.N = slices.Delete(c.N, lo-1, lo)
		}
	case emptied:
		// Entry lo-1 goes and the target comes just below j: shift
		// [lo, j) down into entry lo-1's place.
		copy(c.Size[lo-1:j-1], c.Size[lo:j])
		copy(c.N[lo-1:j-1], c.N[lo:j])
		c.Size[j-1], c.N[j-1] = to, 1
	default:
		c.Size = slices.Insert(c.Size, j, to)
		c.N = slices.Insert(c.N, j, 1)
	}
}

// BestFitUnpacked packs items (in the given order) into c with the
// best-fit policy and returns the unpacked fraction of their total size.
// c is left holding the remaining capacities. Item sizes must be
// positive.
//
// A maximal run of k equal items of size s is placed at once. Let C be
// the smallest capacity ≥ s, held by n bins, and per = ⌊C/s⌋. One-item
// best-fit puts the first item into a bin of C. Its leftover, while still
// ≥ s, is the smallest capacity that fits (every capacity below C is
// smaller than s), so the same bin takes per items and drops to C mod s,
// which fits no further item of the run. The next bin of C follows, and
// so on: min(n, ⌊k/per⌋) bins drop to C mod s. If items remain and a bin
// of C is left, that bin takes them all and drops to C − remaining·s. If
// no bin of C is left, the remaining items go on to the next capacity.
// The packed and unpacked totals are integer sums over the same items as
// the one-item loop's, so the fraction is bit-identical.
func (c *Caps) BestFitUnpacked(items []int64) float64 {
	var packed, unpacked int64
	for len(items) > 0 {
		s, k := items[0], int64(1)
		for k < int64(len(items)) && items[k] == s {
			k++
		}
		items = items[k:]
		i, _ := slices.BinarySearch(c.Size, s)
		for k > 0 {
			if i == len(c.Size) {
				unpacked += k * s
				break
			}
			capacity, n := c.Size[i], c.N[i]
			per := capacity / s
			full := min(n, k/per)
			if full > 0 {
				c.move(i, full, capacity%s)
				packed += full * per * s
				k -= full * per
				// The move put at most one entry, smaller than s, at or
				// below i; the first entry ≥ s is C's (if bins of C are
				// left) or the next capacity.
				if i < len(c.Size) && c.Size[i] < s {
					i++
				}
			}
			if k > 0 && full < n {
				c.move(i, 1, capacity-k*s)
				packed += k * s
				k = 0
			}
		}
	}
	total := packed + unpacked
	if total == 0 {
		return 0
	}
	return float64(unpacked) / float64(total)
}

// move turns n of the bins of capacity Size[i] (0 < n ≤ N[i]) into bins
// of the smaller capacity to, dropping them when to ≤ 0. The target's
// entry belongs at or below i, so dropping an emptied entry i and adding
// a new target entry together shift each slice at most once.
func (c *Caps) move(i int, n, to int64) {
	c.N[i] -= n
	emptied := c.N[i] == 0
	if to > 0 {
		j, found := slices.BinarySearch(c.Size[:i], to)
		switch {
		case found:
			c.N[j] += n
		case emptied:
			// Entry i goes and the target comes at j: shift [j, i) up
			// into entry i's place.
			copy(c.Size[j+1:i+1], c.Size[j:i])
			copy(c.N[j+1:i+1], c.N[j:i])
			c.Size[j], c.N[j] = to, n
			return
		default:
			c.Size = slices.Insert(c.Size, j, to)
			c.N = slices.Insert(c.N, j, n)
			return
		}
	}
	if emptied {
		c.Size = slices.Delete(c.Size, i, i+1)
		c.N = slices.Delete(c.N, i, i+1)
	}
}

// Runs is the run-length form of a decreasing item list, the input of
// the all-fit certificate (see the package comment): in packing order,
// each run is count items of one size, and need is its need_r,
// saturating at math.MaxInt64.
type Runs []run

type run struct{ size, count, need int64 }

// NewRuns returns the runs of items, which must be in decreasing order
// with positive sizes, as the metrics' item lists are. Each run's end is
// found by binary search, and the runs take one allocation.
func NewRuns(items []int64) Runs {
	n := 0
	for i := 0; i < len(items); i = runEnd(items, i) {
		n++
	}
	rs := make(Runs, 0, n)
	for i := 0; i < len(items); {
		j := runEnd(items, i)
		r := run{size: items[i], count: int64(j - i)}
		r.need = r.count
		for _, q := range rs {
			per := q.size / r.size
			if q.size%r.size != 0 {
				per++
			}
			r.need = satMulAdd(r.need, q.count, per)
		}
		rs = append(rs, r)
		i = j
	}
	return rs
}

// runEnd returns the index after the run that starts at items[i]: the
// first later item that is smaller.
func runEnd(items []int64, i int) int {
	s := items[i]
	return i + sort.Search(len(items)-i, func(j int) bool { return items[i+j] < s })
}

// satMulAdd returns a + b·c for non-negative a, b and c, saturating at
// math.MaxInt64.
func satMulAdd(a, b, c int64) int64 {
	if c != 0 && b > (math.MaxInt64-a)/c {
		return math.MaxInt64
	}
	return a + b*c
}

// CertifyCaps reports whether the all-fit certificate holds over the
// bins c holds, an entry counting as its N bins: when it does, best-fit
// leaves none of the runs' items unpacked, so Caps.BestFitUnpacked of
// the items is +0. Each run reads the entries from the largest capacity
// down to the smallest that fits it, and stops once U_r reaches need_r.
func (rs Runs) CertifyCaps(c *Caps) bool {
	for i := len(rs) - 1; i >= 0; i-- {
		s, left := rs[i].size, rs[i].need
		if left == math.MaxInt64 {
			return false
		}
		for j := len(c.Size) - 1; j >= 0 && c.Size[j] >= s; j-- {
			// n·per ≥ left exactly when n > ⌊(left−1)/per⌋; otherwise
			// n·per < left, so the product cannot overflow.
			per, n := c.Size[j]/s, c.N[j]
			if n > (left-1)/per {
				left = 0
				break
			}
			left -= n * per
		}
		if left > 0 {
			return false
		}
	}
	return true
}

// CertifyGroups reports whether the all-fit certificate holds over the
// union of disjoint groups of bins, groups[g] holding group g's bins.
// U_r over the union is the sum of the groups' terms, terms[g][r] being
// group g's term of run r: -1 until counted, then U_r over the group,
// capped at need_r, since a term that reaches need_r certifies its run
// whatever the others hold. It counts a term only where it reads a -1,
// and leaves the count there, so a caller that keeps a group's terms
// until the group changes counts each term once. The runs are checked
// smallest size first, the first that fails ends the pass, and a run's
// sum stops once it reaches need_r. The sums saturate at math.MaxInt64.
func (rs Runs) CertifyGroups(groups, terms [][]int64) bool {
	for r := len(rs) - 1; r >= 0; r-- {
		need := rs[r].need
		if need == math.MaxInt64 {
			return false
		}
		u := int64(0)
		for g := 0; g < len(groups) && u < need; g++ {
			c := terms[g][r]
			if c < 0 {
				c = rs.Term(r, groups[g])
				terms[g][r] = c
			}
			u = satMulAdd(u, c, 1)
		}
		if u < need {
			return false
		}
	}
	return true
}

// Term returns run r's term over bins: U_r over them, capped at need_r,
// the count CertifyGroups keeps for a group.
func (rs Runs) Term(r int, bins []int64) int64 {
	s, need, c := rs[r].size, rs[r].need, int64(0)
	for _, b := range bins {
		if b < s {
			continue
		}
		if c = satMulAdd(c, b/s, 1); c >= need {
			return need
		}
	}
	return c
}
