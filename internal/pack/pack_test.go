package pack

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
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
// value again when handed back its own scratch.
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
		checkAgainstReference(t, decreasing(items), bins)
	}
}

// FuzzBestFitUnpacked holds the sorted-multiset packer against the
// BestFit reference. Each byte of itemBytes is one item of size 1..256,
// each byte of binBytes one bin of capacity 0..255.
func FuzzBestFitUnpacked(f *testing.F) {
	f.Add([]byte{1, 4, 5}, []byte{6, 0, 5}, false)
	f.Add([]byte{7, 7, 3, 3, 3, 0}, []byte{8, 8, 4, 4, 0}, true)
	f.Add([]byte{255, 200}, []byte{10, 20}, false)
	f.Add([]byte{}, []byte{1, 2, 3}, false)
	f.Add([]byte{9}, []byte{}, true)
	f.Fuzz(func(t *testing.T, itemBytes, binBytes []byte, sorted bool) {
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
	})
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
