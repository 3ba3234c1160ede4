// Package future implements the paper's characterization of the family of
// applications expected to be added to the system later. Nothing concrete
// is known about them at design time; the family is described by its most
// demanding member — smallest expected period Tmin, expected processor
// time TNeed needed inside every Tmin window, expected bus capacity
// BNeedBytes inside every Tmin window — together with discrete probability
// distributions of typical process WCETs and message sizes (the histograms
// on slide 10 of the paper's presentation).
package future

import (
	"fmt"
	"math"
	"sort"

	"incdes/internal/tm"
)

// Bin is one column of a discrete size distribution: values of this Size
// occur with probability Prob.
type Bin struct {
	Size int64   `json:"size"`
	Prob float64 `json:"prob"`
}

// Profile characterizes the most demanding expected future application.
type Profile struct {
	// Tmin is the smallest expected period of any future process graph.
	Tmin tm.Time `json:"tmin"`
	// TNeed is the processor time the future application is expected to
	// need inside every Tmin window.
	TNeed tm.Time `json:"tneed"`
	// BNeedBytes is the bus capacity (bytes) the future application is
	// expected to need inside every Tmin window.
	BNeedBytes int64 `json:"bneed_bytes"`
	// WCET is the distribution of typical future process WCETs (sizes in
	// time units).
	WCET []Bin `json:"wcet"`
	// MsgBytes is the distribution of typical future message sizes.
	MsgBytes []Bin `json:"msg_bytes"`
}

// Validate checks the profile's internal consistency.
func (p *Profile) Validate() error {
	if p.Tmin <= 0 {
		return fmt.Errorf("future: Tmin %v must be positive", p.Tmin)
	}
	if p.TNeed < 0 || p.BNeedBytes < 0 {
		return fmt.Errorf("future: needs must be non-negative (tneed %v, bneed %d)", p.TNeed, p.BNeedBytes)
	}
	for _, d := range []struct {
		name string
		bins []Bin
	}{{"WCET", p.WCET}, {"MsgBytes", p.MsgBytes}} {
		if len(d.bins) == 0 {
			return fmt.Errorf("future: %s distribution is empty", d.name)
		}
		var sum float64
		for _, b := range d.bins {
			if b.Size <= 0 {
				return fmt.Errorf("future: %s bin size %d must be positive", d.name, b.Size)
			}
			if b.Prob < 0 {
				return fmt.Errorf("future: %s bin probability %v must be non-negative", d.name, b.Prob)
			}
			sum += b.Prob
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("future: %s probabilities sum to %v, want 1", d.name, sum)
		}
	}
	return nil
}

// expand deterministically turns a size distribution into a multiset of
// item sizes whose total is at least demand (and exceeds it by at most the
// largest bin size), with per-size counts proportional to the
// distribution. Deterministic expansion keeps the C1 metric stable across
// evaluations of the same design alternative.
func expand(bins []Bin, demand int64) []int64 {
	if demand <= 0 {
		return nil
	}
	sorted := append([]Bin(nil), bins...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Size > sorted[j].Size })
	var items []int64
	var total int64
	// Proportional shares first.
	for _, b := range sorted {
		share := int64(float64(demand) * b.Prob)
		n := share / b.Size
		for i := int64(0); i < n; i++ {
			items = append(items, b.Size)
		}
		total += n * b.Size
	}
	// Top off with the smallest size until the demand is covered. The
	// items stay in decreasing size: appended by decreasing bin, the
	// smallest last.
	smallest := sorted[len(sorted)-1].Size
	for total < demand {
		items = append(items, smallest)
		total += smallest
	}
	return items
}

// LargestAppWCETs returns the process WCETs of the largest expected future
// application over a schedule horizon: total processor demand
// TNeed * (horizon / Tmin), split into processes per the WCET
// distribution, in decreasing size order.
func (p *Profile) LargestAppWCETs(horizon tm.Time) []int64 {
	windows := int64(horizon / p.Tmin)
	if windows == 0 {
		windows = 1
	}
	return expand(p.WCET, int64(p.TNeed)*windows)
}

// LargestAppMsgBytes returns the message sizes of the largest expected
// future application over a schedule horizon: total bus demand
// BNeedBytes * (horizon / Tmin), split per the message size distribution,
// in decreasing size order.
func (p *Profile) LargestAppMsgBytes(horizon tm.Time) []int64 {
	windows := int64(horizon / p.Tmin)
	if windows == 0 {
		windows = 1
	}
	return expand(p.MsgBytes, p.BNeedBytes*windows)
}

// PaperProfile returns the future-application characterization shown in
// the paper's presentation (slide 10): WCETs of 20/50/100/150 time units
// with probabilities 10/25/45/20 %, message sizes of 2/4/6/8 bytes with
// probabilities 20/50/20/10 %.
func PaperProfile(tmin, tneed tm.Time, bneedBytes int64) *Profile {
	return &Profile{
		Tmin:       tmin,
		TNeed:      tneed,
		BNeedBytes: bneedBytes,
		WCET: []Bin{
			{Size: 20, Prob: 0.10},
			{Size: 50, Prob: 0.25},
			{Size: 100, Prob: 0.45},
			{Size: 150, Prob: 0.20},
		},
		MsgBytes: []Bin{
			{Size: 2, Prob: 0.20},
			{Size: 4, Prob: 0.50},
			{Size: 6, Prob: 0.20},
			{Size: 8, Prob: 0.10},
		},
	}
}
