// Package metrics implements the paper's two design criteria and the
// objective function that drives the mapping strategies toward designs
// that accommodate future applications.
//
// Criterion 1 (slack clustering): the largest expected future application
// is bin-packed, best-fit-decreasing, into the slack of the design
// alternative. C1P is the percentage of future process load that cannot
// be packed into processor slack intervals; C1m is the percentage of
// future message load that cannot be packed into free TDMA slot capacity.
// A design whose slack forms large contiguous chunks scores 0; a
// fragmented design scores high.
//
// Criterion 2 (slack distribution): slack must recur every Tmin. C2P is
// the sum over processors of the minimum per-Tmin-window idle time; C2m
// is the minimum per-window free bus capacity. The objective penalizes
// shortfalls against the future application's periodic needs.
//
// Objective (the paper's formula):
//
//	C = w1P*C1P + w1m*C1m + w2P*max(0, tneed-C2P) + w2m*max(0, bneed-C2m)
package metrics

import (
	"fmt"
	"math"

	"incdes/internal/future"
	"incdes/internal/pack"
	"incdes/internal/sched"
	"incdes/internal/slack"
	"incdes/internal/tm"
)

// Weights are the objective coefficients. C1 terms are percentages
// (0..100); C2 shortfall terms are in time units and bytes respectively,
// so the weights also perform unit normalization.
type Weights struct {
	W1P float64 `json:"w1p"`
	W1m float64 `json:"w1m"`
	W2P float64 `json:"w2p"`
	W2m float64 `json:"w2m"`
}

// DefaultWeights weighs all four criteria equally by normalizing the C2
// shortfalls to percentages of the corresponding need: a total C2P
// shortfall contributes 100, like a total C1P packing failure.
func DefaultWeights(p *future.Profile) Weights {
	w := Weights{W1P: 1, W1m: 1}
	if p.TNeed > 0 {
		w.W2P = 100 / float64(p.TNeed)
	}
	if p.BNeedBytes > 0 {
		w.W2m = 100 / float64(p.BNeedBytes)
	}
	return w
}

// Report carries the metric values of one design alternative.
type Report struct {
	C1P float64 // % of future process load not packable into slack
	C1m float64 // % of future message load not packable into free slots
	C2P tm.Time // sum over nodes of min per-Tmin-window idle time
	C2m int64   // min per-Tmin-window free bus bytes

	ShortfallP tm.Time // max(0, TNeed - C2P)
	ShortfallM int64   // max(0, BNeedBytes - C2m)

	Objective float64

	// PeriodicFill is a smooth companion to C2P: the sum over nodes and
	// Tmin windows of sqrt(window slack). Total slack is invariant under
	// moves, but the concave transform rewards spreading it evenly over
	// the windows — which is exactly what raises the per-node minima that
	// C2P measures. The objective's min-based C2P is flat when several
	// windows tie at the minimum; iterative improvement uses PeriodicFill
	// to order designs with equal C, so a move toward a more even slack
	// distribution still registers as progress.
	PeriodicFill float64
}

func (r Report) String() string {
	return fmt.Sprintf("C1P=%.1f%% C1m=%.1f%% C2P=%v C2m=%dB C=%.2f",
		r.C1P, r.C1m, r.C2P, r.C2m, r.Objective)
}

// Evaluate computes the metrics of a scheduled design alternative against
// a future-application profile.
func Evaluate(st *sched.State, prof *future.Profile, w Weights) Report {
	var r Report
	horizon := st.Horizon()
	perNode := slack.Processor(st)

	// Criterion 1, processes: pack the largest future application into
	// the slack intervals of all processors. The item lists come in
	// decreasing size, so best-fit in their order is best-fit-decreasing.
	items := prof.LargestAppWCETs(horizon)
	bins := slack.Lengths(slack.AllIntervals(perNode))
	frac, scratch := pack.BestFitUnpacked(items, bins, nil)
	r.C1P = 100 * frac

	// Criterion 1, messages: pack future messages into free slot bytes.
	mItems := prof.LargestAppMsgBytes(horizon)
	mBins := slack.BusFreeBytes(st)
	frac, _ = pack.BestFitUnpacked(mItems, mBins, scratch)
	r.C1m = 100 * frac

	// Criterion 2, processes: periodic slack per node, summed; plus the
	// smooth per-window fill used as a tie-breaker by the heuristics.
	for _, n := range st.System().Arch.NodeIDs() {
		ws := slack.WindowSlack(perNode[n], prof.Tmin, horizon)
		min := ws[0]
		for _, v := range ws {
			if v < min {
				min = v
			}
			r.PeriodicFill += math.Sqrt(float64(v))
		}
		r.C2P += min
	}

	// Criterion 2, messages: periodic free bus capacity.
	r.C2m = slack.MinBusWindowFree(st, prof.Tmin)

	r.ShortfallP = tm.Max(0, prof.TNeed-r.C2P)
	if prof.BNeedBytes > r.C2m {
		r.ShortfallM = prof.BNeedBytes - r.C2m
	}
	r.Objective = w.W1P*r.C1P + w.W1m*r.C1m +
		w.W2P*float64(r.ShortfallP) + w.W2m*float64(r.ShortfallM)
	return r
}
