package pack

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"incdes/internal/future"
)

// decreasing returns a copy of items in decreasing size, the order the
// metrics feed the packer.
func decreasing(items []int64) []int64 {
	out := slices.Clone(items)
	slices.SortFunc(out, func(a, b int64) int { return cmp.Compare(b, a) })
	return out
}

// checkAgainstReference fails t unless BestFitUnpacked agrees bit for bit
// with the BestFit reference, leaves bins untouched, and gives the same
// value again when handed back its own scratch; and unless a Caps of the
// bins, packed, holds the capacities the reference leaves.
func checkAgainstReference(t *testing.T, items, bins []int64) {
	t.Helper()
	want := BestFit(items, bins).UnpackedFraction()
	orig := slices.Clone(bins)
	got, scratch := BestFitUnpacked(items, bins, nil)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("items %v bins %v: BestFitUnpacked = %v, BestFit = %v", items, bins, got, want)
	}
	if !slices.Equal(bins, orig) {
		t.Fatalf("bins mutated: %v, was %v", bins, orig)
	}
	again, _ := BestFitUnpacked(items, bins, scratch)
	if math.Float64bits(again) != math.Float64bits(want) {
		t.Fatalf("items %v bins %v: reusing scratch gives %v, want %v", items, bins, again, want)
	}
	var c Caps
	c.Reset(slices.Clone(bins))
	c.BestFitUnpacked(items)
	checkCaps(t, &c, remainingAfter(items, bins))
}

// checkCaps fails t unless c is a well-formed histogram (Size ascending
// and distinct, every N > 0) of exactly the positive capacities in bins.
func checkCaps(t *testing.T, c *Caps, bins []int64) {
	t.Helper()
	if len(c.Size) != len(c.N) {
		t.Fatalf("histogram has %d sizes and %d counts", len(c.Size), len(c.N))
	}
	for i := range c.Size {
		if c.N[i] <= 0 || c.Size[i] <= 0 || i > 0 && c.Size[i-1] >= c.Size[i] {
			t.Fatalf("malformed histogram: sizes %v counts %v", c.Size, c.N)
		}
	}
	want := map[int64]int64{}
	for _, b := range bins {
		if b > 0 {
			want[b]++
		}
	}
	if len(want) != len(c.Size) {
		t.Fatalf("histogram sizes %v counts %v, want the positive capacities of %v", c.Size, c.N, bins)
	}
	for i, s := range c.Size {
		if want[s] != c.N[i] {
			t.Fatalf("histogram sizes %v counts %v, want the positive capacities of %v", c.Size, c.N, bins)
		}
	}
}

// checkCertified fails t when the grouped form of the certificate, over
// bins split into groups of three, disagrees with Certify over the same
// bins, on its first pass or on a second pass that reads the terms the
// first one counted; or when the certificate of runs holds over bins but
// the BestFit reference leaves an item of items over, or BestFitUnpacked
// does not return the bits of +0.
func checkCertified(t *testing.T, runs Runs, items, bins []int64) {
	t.Helper()
	groups, terms := groupTerms(runs, bins, 3)
	cs := runs.Certify(bins)
	for pass := 1; pass <= 2; pass++ {
		if cg := runs.CertifyGroups(groups, terms); cg != cs {
			t.Fatalf("items %v bins %v: CertifyGroups = %v on pass %d, Certify = %v", items, bins, cg, pass, cs)
		}
	}
	if !runs.Certify(bins) {
		return
	}
	if res := BestFit(items, bins); res.UnpackedTotal != 0 {
		t.Fatalf("items %v bins %v: certified, but BestFit leaves %d unpacked", items, bins, res.UnpackedTotal)
	}
	if got, _ := BestFitUnpacked(items, bins, nil); math.Float64bits(got) != 0 {
		t.Fatalf("items %v bins %v: certified, but BestFitUnpacked = %v", items, bins, got)
	}
}

// groupTerms splits bins into consecutive groups of at most size bins,
// plus one empty group, and returns the groups with their terms not yet
// counted, the input of CertifyGroups.
func groupTerms(runs Runs, bins []int64, size int) (groups, terms [][]int64) {
	for lo := 0; ; lo += size {
		groups = append(groups, bins[min(lo, len(bins)):min(lo+size, len(bins))])
		terms = append(terms, notCounted(len(runs)))
		if lo >= len(bins) {
			return groups, terms
		}
	}
}

// notCounted returns k certificate terms, none counted yet.
func notCounted(k int) []int64 {
	u := make([]int64, k)
	for r := range u {
		u[r] = -1
	}
	return u
}

// remainingAfter returns the capacities the BestFit reference leaves in
// bins after packing items.
func remainingAfter(items, bins []int64) []int64 {
	res := BestFit(items, bins)
	left := slices.Clone(bins)
	for i, b := range res.Assignment {
		if b >= 0 {
			left[b] -= items[i]
		}
	}
	return left
}

func TestBestFitChoosesTightestBin(t *testing.T) {
	// Item 5 fits bins of 10 and 6; best-fit picks 6.
	res := BestFit([]int64{5}, []int64{10, 6})
	if res.Assignment[0] != 1 {
		t.Errorf("assignment = %v, want bin 1", res.Assignment)
	}
	if res.PackedTotal != 5 || res.UnpackedTotal != 0 {
		t.Errorf("totals = %d packed, %d unpacked", res.PackedTotal, res.UnpackedTotal)
	}
}

func TestBestFitLeavesOversizedUnpacked(t *testing.T) {
	res := BestFit([]int64{7, 3, 9}, []int64{8})
	if res.Assignment[0] != 0 || res.Assignment[1] != -1 || res.Assignment[2] != -1 {
		t.Errorf("assignment = %v", res.Assignment)
	}
	if res.UnpackedTotal != 12 || res.UnpackedCount != 2 {
		t.Errorf("unpacked = %d (%d items)", res.UnpackedTotal, res.UnpackedCount)
	}
}

func TestBestFitDecreasingBeatsOrderSensitivity(t *testing.T) {
	// In input order, best-fit parks the 2 in the 6-bin, leaving no home
	// for the 6. Decreasing order packs everything.
	items := []int64{2, 5, 6}
	bins := []int64{7, 6}
	plain := BestFit(items, bins)
	if plain.UnpackedTotal == 0 {
		t.Skip("test premise broken: plain best-fit packed everything")
	}
	if frac, _ := BestFitUnpacked(decreasing(items), bins, nil); frac != 0 {
		t.Errorf("best-fit-decreasing left %v unpacked", frac)
	}
}

func TestBestFitDecreasingAssignmentOrder(t *testing.T) {
	// Decreasing items {9, 1} into bins {9, 1}: the 9 fills bin 0 and
	// the 1 then fits only bin 1.
	res := BestFit(decreasing([]int64{1, 9}), []int64{9, 1})
	if res.Assignment[0] != 0 || res.Assignment[1] != 1 {
		t.Errorf("assignment = %v, want [0 1]", res.Assignment)
	}
}

func TestUnpackedFraction(t *testing.T) {
	res := BestFit([]int64{4, 4}, []int64{4})
	if got := res.UnpackedFraction(); got != 0.5 {
		t.Errorf("UnpackedFraction = %v, want 0.5", got)
	}
	if got := (Result{}).UnpackedFraction(); got != 0 {
		t.Errorf("empty fraction = %v, want 0", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if res := BestFit(nil, []int64{5}); res.PackedCount != 0 || res.UnpackedCount != 0 {
		t.Error("empty items mishandled")
	}
	res := BestFit([]int64{3}, nil)
	if res.UnpackedTotal != 3 {
		t.Error("no-bin case mishandled")
	}
}

// TestPackQuickConservation: for items in input and in decreasing order,
// packed + unpacked always equals the input total and no bin is
// over-filled.
func TestPackQuickConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		items := make([]int64, rng.Intn(20))
		var total int64
		for i := range items {
			items[i] = 1 + rng.Int63n(30)
			total += items[i]
		}
		bins := make([]int64, rng.Intn(10))
		for i := range bins {
			bins[i] = 1 + rng.Int63n(40)
		}
		for _, order := range [][]int64{items, decreasing(items)} {
			res := BestFit(order, bins)
			if res.PackedTotal+res.UnpackedTotal != total {
				return false
			}
			// Recompute bin loads from the assignment.
			load := make([]int64, len(bins))
			for i, b := range res.Assignment {
				if b >= 0 {
					load[b] += order[i]
				}
			}
			for b := range bins {
				if load[b] > bins[b] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPackQuickBFDUniform: best-fit-decreasing is not guaranteed to pack
// as much as any other order, so this only asserts that it packs
// everything when items are uniform and capacity obviously suffices.
func TestPackQuickBFDUniform(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		items := make([]int64, n)
		for i := range items {
			items[i] = 5
		}
		bins := make([]int64, n)
		for i := range bins {
			bins[i] = 5
		}
		frac, _ := BestFitUnpacked(items, bins, nil)
		return frac == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBFDNearOptimalSmall cross-checks best-fit-decreasing against brute
// force on tiny instances: BFD may be suboptimal, but never by more than
// the classic 11/9·OPT + 1 bin bound — and for the instances here (<= 5
// items) it must pack everything whenever any order can.
func TestBFDNearOptimalSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	perms := func(n int) [][]int {
		var out [][]int
		var rec func(cur []int, rest []int)
		rec = func(cur []int, rest []int) {
			if len(rest) == 0 {
				out = append(out, append([]int(nil), cur...))
				return
			}
			for i := range rest {
				next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
				rec(append(cur, rest[i]), next)
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		rec(nil, idx)
		return out
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		items := make([]int64, n)
		for i := range items {
			items[i] = 1 + rng.Int63n(12)
		}
		bins := make([]int64, 1+rng.Intn(3))
		for i := range bins {
			bins[i] = 4 + rng.Int63n(16)
		}
		// Brute force: does any insertion order pack everything with
		// best-fit?
		anyAll := false
		for _, p := range perms(n) {
			ordered := make([]int64, n)
			for i, idx := range p {
				ordered[i] = items[idx]
			}
			if BestFit(ordered, bins).UnpackedTotal == 0 {
				anyAll = true
				break
			}
		}
		got := BestFit(decreasing(items), bins)
		if anyAll && got.UnpackedTotal != 0 {
			// BFD is not guaranteed optimal in general, but log the
			// counterexample: for these tiny instances it is exceedingly
			// rare and worth inspecting.
			t.Logf("trial %d: BFD left %d unpacked where some order packs all (items %v bins %v)",
				trial, got.UnpackedTotal, items, bins)
		}
		if !anyAll && got.UnpackedTotal == 0 {
			t.Errorf("trial %d: BFD packed everything but brute force says impossible (items %v bins %v)",
				trial, items, bins)
		}
	}
}

func TestBestFitUnpackedMatchesBestFit(t *testing.T) {
	cases := []struct {
		name        string
		items, bins []int64
	}{
		{"empty", nil, nil},
		{"no items", nil, []int64{5, 0, 3}},
		{"no bins", []int64{3, 1}, nil},
		{"unsorted items", []int64{2, 5, 6, 1, 3}, []int64{7, 6, 4}},
		{"decreasing items", []int64{6, 5, 3, 2, 1}, []int64{7, 6, 4}},
		{"duplicate capacities", []int64{4, 4, 3, 2, 2, 1}, []int64{5, 5, 5, 3, 3}},
		{"zero-capacity bins", []int64{2, 1, 1}, []int64{0, 3, 0, 0, 1}},
		{"larger than every bin", []int64{9, 10, 2, 11}, []int64{8, 3}},
		{"exact fits", []int64{4, 3, 3}, []int64{3, 4, 3}},
		{"one bin absorbs all", []int64{1, 1, 1, 1}, []int64{10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, tc.items, tc.bins)
		})
	}
	// The metrics' shape: the items of the paper's largest future
	// application (hundreds of items in four runs of equal size,
	// decreasing) and hundreds of bins with few distinct capacities, as
	// processor gap lengths and free slot bytes are. 100 bins leave items
	// over, 720 take them all.
	prof := future.PaperProfile(100, 270, 24)
	wcets, msgs := prof.LargestAppWCETs(10000), prof.LargestAppMsgBytes(10000)
	gapCaps := []int64{0, 15, 20, 45, 60, 100, 130, 150, 210, 400}
	slotCaps := []int64{0, 1, 2, 3, 5, 8, 12, 14, 16, 32}
	shaped := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name  string
		items []int64
		caps  []int64
		n     int
	}{
		{"profile WCETs into 100 bins", wcets, gapCaps, 100},
		{"profile WCETs into 720 bins", wcets, gapCaps, 720},
		{"profile message bytes into 100 bins", msgs, slotCaps, 100},
		{"profile message bytes into 720 bins", msgs, slotCaps, 720},
	} {
		bins := make([]int64, tc.n)
		for i := range bins {
			bins[i] = tc.caps[shaped.Intn(len(tc.caps))]
		}
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, tc.items, bins)
		})
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		items := make([]int64, rng.Intn(30))
		for i := range items {
			items[i] = 1 + rng.Int63n(20)
		}
		bins := make([]int64, rng.Intn(40))
		for i := range bins {
			bins[i] = rng.Int63n(25)
		}
		checkAgainstReference(t, items, bins)
		d := decreasing(items)
		checkAgainstReference(t, d, bins)
		checkCertified(t, NewRuns(d), d, bins)
	}
}

// FuzzBestFitUnpacked holds the histogram packer against the BestFit
// reference. Each byte of itemBytes is one item of size 1..256, each
// byte of binBytes one bin of capacity 0..255. Each pair of bytes of
// patchBytes is one patch of a Caps built from the bins before it packs,
// a shrink or a grow, interleaved as the bytes give them:
//   - a first byte below 128 is a Shrink: it picks a present capacity,
//     and the second byte a smaller target (0 drops the bin);
//   - a first byte of 128 or more is a Grow: it picks a bin of the
//     reference, a dropped one (capacity 0) included, and the second
//     byte how much larger the target is (1..256).
//
// The reference patches its bins equally and packs them; the histogram
// must be well formed after every operation and after packing, and hold
// what the reference leaves. Sorted items also check the all-fit
// certificate: where it holds over the bins, or over the patched
// histogram, the reference must leave nothing over, and its slice,
// histogram and totals forms must agree on the same bins.
func FuzzBestFitUnpacked(f *testing.F) {
	f.Add([]byte{1, 4, 5}, []byte{6, 0, 5}, []byte{}, false)
	f.Add([]byte{7, 7, 3, 3, 3, 0}, []byte{8, 8, 4, 4, 0}, []byte{1, 5}, true)
	f.Add([]byte{255, 200}, []byte{10, 20}, []byte{0, 9}, false)
	f.Add([]byte{}, []byte{1, 2, 3}, []byte{2, 1, 0, 0}, false)
	f.Add([]byte{9}, []byte{}, []byte{3, 3}, true)
	f.Add([]byte{3, 3, 3, 3, 1, 1, 1}, []byte{12, 12, 12, 7, 7, 2, 2}, []byte{0, 1, 4, 30, 1, 200}, true)
	// Grows: into a present capacity, of a dropped bin, interleaved with
	// shrinks, and back to where a shrink took the bin.
	f.Add([]byte{4, 4, 2}, []byte{3, 5, 8}, []byte{128, 4, 129, 0}, true)
	f.Add([]byte{7, 3}, []byte{0, 0, 6}, []byte{128, 9, 2, 0, 129, 2}, true)
	f.Add([]byte{5, 5, 5, 1}, []byte{9, 9, 4, 1}, []byte{0, 3, 130, 2, 1, 0, 131, 7}, true)
	f.Add([]byte{2, 2}, []byte{6, 6}, []byte{0, 1, 128, 4, 0, 1, 129, 4}, false)
	f.Fuzz(func(t *testing.T, itemBytes, binBytes, patchBytes []byte, sorted bool) {
		items := make([]int64, len(itemBytes))
		for i, b := range itemBytes {
			items[i] = 1 + int64(b)
		}
		if sorted {
			items = decreasing(items)
		}
		bins := make([]int64, len(binBytes))
		for i, b := range binBytes {
			bins[i] = int64(b)
		}
		checkAgainstReference(t, items, bins)

		var c Caps
		c.Reset(slices.Clone(bins))
		checkCaps(t, &c, bins)
		var runs Runs
		if sorted {
			runs = NewRuns(items)
			checkCertified(t, runs, items, bins)
			if cs, cc := runs.Certify(bins), runs.CertifyCaps(&c); cs != cc {
				t.Fatalf("items %v bins %v: Certify = %v, CertifyCaps = %v", items, bins, cs, cc)
			}
		}
		for k := 0; k+1 < len(patchBytes); k += 2 {
			switch {
			case patchBytes[k] < 128 && len(c.Size) > 0:
				from := c.Size[int(patchBytes[k])%len(c.Size)]
				to := int64(patchBytes[k+1]) % from
				c.Shrink(from, to)
				bins[slices.Index(bins, from)] = to
			case patchBytes[k] >= 128 && len(bins) > 0:
				i := int(patchBytes[k]-128) % len(bins)
				to := bins[i] + 1 + int64(patchBytes[k+1])
				c.Grow(bins[i], to)
				bins[i] = to
			}
			checkCaps(t, &c, bins)
		}
		if sorted {
			checkCertified(t, runs, items, bins)
			if cs, cc := runs.Certify(bins), runs.CertifyCaps(&c); cs != cc {
				t.Fatalf("items %v patched bins %v: Certify = %v, CertifyCaps = %v", items, bins, cs, cc)
			}
		}
		want := BestFit(items, bins).UnpackedFraction()
		if got := c.BestFitUnpacked(items); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("items %v patched bins %v: Caps.BestFitUnpacked = %v, BestFit = %v", items, bins, got, want)
		}
		checkCaps(t, &c, remainingAfter(items, bins))
	})
}

// TestCapsShrinkPanics: shrinking a capacity the histogram does not hold,
// or to one that is not smaller, is a caller's bug and panics; so is
// growing a positive capacity the histogram does not hold, or to one
// that is not larger. (Growing a dropped bin, from 0, is not: the fuzz
// target's grow seeds do it.)
func TestCapsShrinkPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		grow     bool
		from, to int64
	}{
		{"absent", false, 4, 1},
		{"dropped zero", false, 0, -1},
		{"not smaller", false, 5, 5},
		{"larger", false, 3, 4},
		{"grow absent", true, 4, 6},
		{"grow not larger", true, 5, 5},
		{"grow smaller", true, 5, 3},
		{"grow dropped zero, not larger", true, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c Caps
			c.Reset([]int64{0, 3, 5, 5})
			defer func() {
				if recover() == nil {
					t.Errorf("grow %v (%d, %d) did not panic", tc.grow, tc.from, tc.to)
				}
			}()
			if tc.grow {
				c.Grow(tc.from, tc.to)
			} else {
				c.Shrink(tc.from, tc.to)
			}
		})
	}
}

// TestBestFitUnpackedAllocs: with a scratch already grown to the bin
// count, the packer allocates nothing.
func TestBestFitUnpackedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]int64, 60)
	for i := range items {
		items[i] = 1 + rng.Int63n(8)
	}
	items = decreasing(items)
	bins := make([]int64, 720)
	for i := range bins {
		bins[i] = rng.Int63n(16)
	}
	_, scratch := BestFitUnpacked(items, bins, nil)
	allocs := testing.AllocsPerRun(50, func() {
		_, scratch = BestFitUnpacked(items, bins, scratch)
	})
	if allocs != 0 {
		t.Errorf("BestFitUnpacked with a warmed scratch: %v allocs per call, want 0", allocs)
	}
}

func TestNewRuns(t *testing.T) {
	const maxInt = math.MaxInt64
	for _, tc := range []struct {
		items []int64
		want  Runs
	}{
		{nil, Runs{}},
		{[]int64{7}, Runs{{7, 1, 1}}},
		// need: 2; 3 + 2·⌈5/3⌉ = 7; 1 + 2·5 + 3·3 = 20.
		{[]int64{5, 5, 3, 3, 3, 1}, Runs{{5, 2, 2}, {3, 3, 7}, {1, 1, 20}}},
		// 1 + 1·MaxInt64 saturates.
		{[]int64{maxInt, 1}, Runs{{maxInt, 1, 1}, {1, 1, maxInt}}},
	} {
		if got := NewRuns(tc.items); !slices.Equal(got, tc.want) {
			t.Errorf("NewRuns(%v) = %v, want %v", tc.items, got, tc.want)
		}
	}
}

// TestCertify pins the certificate's edges in its two forms and in the
// reference: over a bin slice, over the histogram of the same bins and
// over groups of them.
func TestCertify(t *testing.T) {
	const maxInt = math.MaxInt64
	for _, tc := range []struct {
		name        string
		items, bins []int64
		want        bool
	}{
		// U_1 = 2 + 1 = need_1 = 3.
		{"exactly tight, one run", []int64{2, 2, 2}, []int64{4, 2}, true},
		// U_1 = need_1 = 1; U_2 = 2 + 1 = need_2 = 1 + ⌈4/2⌉ = 3.
		{"exactly tight, two runs", []int64{4, 2}, []int64{4, 2}, true},
		{"one slot fewer, one run", []int64{2, 2, 2}, []int64{4, 1}, false},
		{"one slot fewer, two runs", []int64{4, 2}, []int64{4, 1}, false},
		// Everything fits, but U_2 = 2 < need_2 = 3: sufficient, not necessary.
		{"{3, 2} into {3, 3}", []int64{3, 2}, []int64{3, 3}, false},
		// need_2 = 1 + MaxInt64 saturates; the 1 does not fit.
		{"MaxInt64 item, then one more", []int64{maxInt, 1}, []int64{maxInt}, false},
		// The same saturated need, where both fit.
		{"MaxInt64 item, saturated need", []int64{maxInt, 1}, []int64{maxInt, maxInt}, false},
		{"two MaxInt64 items", []int64{maxInt, maxInt}, []int64{maxInt, maxInt - 1}, false},
		{"no items", nil, []int64{1}, true},
		{"no items, no bins", nil, nil, true},
		{"items and no bins", []int64{1}, nil, false},
		{"items and empty bins", []int64{1}, []int64{0, 0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := NewRuns(tc.items)
			var c Caps
			c.Reset(slices.Clone(tc.bins))
			if got := runs.Certify(tc.bins); got != tc.want {
				t.Errorf("Certify = %v, want %v", got, tc.want)
			}
			if got := runs.CertifyCaps(&c); got != tc.want {
				t.Errorf("CertifyCaps = %v, want %v", got, tc.want)
			}
			for _, size := range []int{1, 2, len(tc.bins) + 1} {
				if got := runs.CertifyGroups(groupTerms(runs, tc.bins, size)); got != tc.want {
					t.Errorf("CertifyGroups over groups of %d bins = %v, want %v", size, got, tc.want)
				}
			}
		})
	}
	if res := BestFit([]int64{3, 2}, []int64{3, 3}); res.UnpackedTotal != 0 {
		t.Errorf("{3, 2} into {3, 3} leaves %d unpacked; the case no longer shows a fit the certificate misses", res.UnpackedTotal)
	}
	// A histogram entry counts as its N bins, however many: U_r stops at
	// need_r, so N·⌊Size/s⌋ is never formed when it would overflow.
	for _, tc := range []struct {
		name  string
		items []int64
		c     Caps
		want  bool
	}{
		{"MaxInt64 bins of MaxInt64, saturated need", []int64{maxInt, 1}, Caps{Size: []int64{maxInt}, N: []int64{maxInt}}, false},
		{"MaxInt64 bins of 4", []int64{2, 2, 2}, Caps{Size: []int64{4}, N: []int64{maxInt}}, true},
	} {
		if got := NewRuns(tc.items).CertifyCaps(&tc.c); got != tc.want {
			t.Errorf("%s: CertifyCaps = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A term stops at need_r, so two MaxInt64 bins of a size-2 run
	// count 3, not a sum past math.MaxInt64; a group whose term reaches
	// need_r certifies the run without the later groups' terms.
	runs := NewRuns([]int64{2, 2, 2})
	terms := [][]int64{notCounted(1), notCounted(1)}
	if !runs.CertifyGroups([][]int64{{maxInt, maxInt}, {5}}, terms) || terms[0][0] != 3 || terms[1][0] != -1 {
		t.Errorf("terms after certifying {MaxInt64, MaxInt64}, {5} for three 2s = %v, want [[3] [-1]]", terms)
	}
	// A counted term is read, not counted again: a group of bins that
	// fits every item certifies nothing when its term says 0.
	if runs.CertifyGroups([][]int64{{6}}, [][]int64{{0}}) {
		t.Error("CertifyGroups counted a group again whose term was given")
	}
	// The sums of the terms saturate: a total past math.MaxInt64 stays
	// there instead of wrapping below need.
	for _, tc := range []struct {
		name  string
		items []int64
		terms [][]int64
		want  bool
	}{
		{"totals past MaxInt64", []int64{2, 2, 2}, [][]int64{{maxInt}, {1}}, true},
		{"saturated totals", []int64{2, 2, 2}, [][]int64{{maxInt}, {maxInt}, {maxInt}}, true},
		{"saturated totals, saturated need", []int64{maxInt, 1}, [][]int64{{maxInt, maxInt}, {maxInt, maxInt}}, false},
		{"one short", []int64{2, 2, 2}, [][]int64{{1}, {1}, {0}}, false},
		{"no groups", []int64{1}, nil, false},
		{"no items, no groups", nil, nil, true},
	} {
		groups := make([][]int64, len(tc.terms))
		if got := NewRuns(tc.items).CertifyGroups(groups, tc.terms); got != tc.want {
			t.Errorf("%s: CertifyGroups over terms %v = %v, want %v", tc.name, tc.terms, got, tc.want)
		}
	}
}

var certSink bool
var runsSink Runs

// TestCertifyAllocs: the certificate predicates allocate
// nothing, on bins where the certificate holds and on bins where it
// fails, and NewRuns allocates once.
func TestCertifyAllocs(t *testing.T) {
	items := future.PaperProfile(100, 270, 24).LargestAppWCETs(10000)
	runs := NewRuns(items)
	if n := testing.AllocsPerRun(50, func() { runsSink = NewRuns(items) }); n != 1 {
		t.Errorf("NewRuns of %d items: %v allocs per call, want 1", len(items), n)
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{100, 720} {
		bins := make([]int64, n)
		for i := range bins {
			bins[i] = rng.Int63n(400)
		}
		var c Caps
		c.Reset(slices.Clone(bins))
		groups, terms := groupTerms(runs, bins, n/2)
		allocs := testing.AllocsPerRun(50, func() {
			for _, u := range terms {
				for r := range u {
					u[r] = -1
				}
			}
			certSink = runs.Certify(bins) != runs.CertifyCaps(&c) || runs.Certify(bins) != runs.CertifyGroups(groups, terms)
		})
		if allocs != 0 {
			t.Errorf("%d bins (certified: %v): %v allocs per call, want 0", n, runs.Certify(bins), allocs)
		}
	}
}
