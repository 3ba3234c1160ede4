package metrics

import (
	"math"
	"slices"

	"incdes/internal/future"
	"incdes/internal/model"
	"incdes/internal/pack"
	"incdes/internal/sched"
	"incdes/internal/slack"
	"incdes/internal/tm"
)

// Baseline caches every metric input that depends only on the frozen
// base schedule: per-node slack intervals and per-window slack vectors,
// the per-occurrence and per-window free bus capacity, the histogram of
// the per-occurrence free bytes, and the future-application item lists
// (in decreasing size, the order the best-fit-decreasing packing takes
// them). An evaluation of a candidate design that differs from the base
// by an open sched.Txn then only recomputes the touched node timelines
// and patches the touched slot occurrences and their capacities in the
// histogram — everything else is read from here. Both item lists are
// also kept as pack.Runs, so an evaluation can try the all-fit
// certificate before it packs.
//
// A Baseline is immutable after construction and safe to share across
// evaluation workers; the mutable scratch lives in the per-worker
// Incremental evaluators it hands out.
type Baseline struct {
	prof    *future.Profile
	w       Weights
	horizon tm.Time

	// nodeIDs is Arch.NodeIDs() order (the C2P accumulation order);
	// it is ascending, which is also slack.AllIntervals's bin order.
	nodeIDs []model.NodeID

	items  []int64 // LargestAppWCETs, decreasing (C1P objects)
	mItems []int64 // LargestAppMsgBytes, decreasing (C1m objects)
	runs   pack.Runs
	mRuns  pack.Runs

	// By node position (nodeIDs order): each node's slack interval
	// lengths and per-window slack vector.
	gapLens  [][]int64
	winSlack [][]tm.Time

	busFree []int64   // free bytes per slot occurrence, bus order then time order
	busCaps pack.Caps // busFree as a histogram (the C1m bins)
	busWin  []int64   // free bytes per Tmin window, summed over buses
	busOff  []int     // busFree offset of each bus's occurrence block
	busTmin tm.Time   // effective window length of busWin (clipped like BusWindowFree)
}

// NewBaseline precomputes the metric inputs of the base state. The cost
// is one full slack analysis — the same work one Evaluate performs.
func NewBaseline(base *sched.State, prof *future.Profile, w Weights) *Baseline {
	horizon := base.Horizon()
	b := &Baseline{
		prof:    prof,
		w:       w,
		horizon: horizon,
		nodeIDs: base.System().Arch.NodeIDs(),
	}
	b.items = prof.LargestAppWCETs(horizon)
	b.mItems = prof.LargestAppMsgBytes(horizon)
	b.runs = pack.NewRuns(b.items)
	b.mRuns = pack.NewRuns(b.mItems)

	perNode := slack.Processor(base)
	b.gapLens = make([][]int64, len(b.nodeIDs))
	b.winSlack = make([][]tm.Time, len(b.nodeIDs))
	for i, n := range b.nodeIDs {
		b.gapLens[i] = slack.Lengths(perNode[n])
		b.winSlack[i] = slack.WindowSlack(perNode[n], prof.Tmin, horizon)
	}

	b.busFree = slack.BusFreeBytes(base)
	b.busCaps.Reset(slices.Clone(b.busFree))
	b.busWin = slack.BusWindowFree(base, prof.Tmin)
	b.busOff = make([]int, base.NumBuses())
	off := 0
	for bi := 0; bi < base.NumBuses(); bi++ {
		bst := base.BusStateAt(bi)
		b.busOff[bi] = off
		off += bst.Rounds() * bst.Bus().NumSlots()
	}
	b.busTmin = prof.Tmin
	if int(horizon/b.busTmin) == 0 {
		b.busTmin = horizon // BusWindowFree's single-window clipping
	}
	return b
}

// Evaluator returns a fresh evaluator over the baseline. Each evaluation
// worker owns one: the evaluator's scratch buffers are reused across
// calls and are not safe for concurrent use.
func (b *Baseline) Evaluator() *Incremental {
	return &Incremental{b: b}
}

// Incremental scores candidate designs against a Baseline, recomputing
// only what an open transaction touched. The resulting Report is
// byte-identical to Evaluate's on the same state: integer quantities
// (window slack, free bytes) are either copied or recomputed exactly,
// and the floating-point accumulations (packing fractions, PeriodicFill,
// the objective) replay the identical operation sequence in the
// identical order.
type Incremental struct {
	b *Baseline

	// Scratch reused across evaluations.
	bins    []int64
	mBins   []int64
	mCaps   pack.Caps
	remA    []int64
	gapBuf  []tm.Interval
	winBuf  []tm.Time
	busWinS []int64
}

// EvaluateTxn scores st, which must be the baseline's base schedule with
// the open transaction txn applied on top. full reports a full
// recompute: every node timeline was touched, so no cached slack vector
// could be reused and each one was rederived from the state (still
// through the evaluator's reusable scratch — the classification is
// observability, not a different code path). The Report is
// byte-identical to Evaluate's in every case.
func (e *Incremental) EvaluateTxn(st *sched.State, txn *sched.Txn) (rep Report, full bool) {
	b := e.b
	full = txn.DirtyNodeCount() >= len(b.nodeIDs)

	var r Report
	window := tm.Iv(0, b.horizon)

	// Processes, both criteria, in one pass over the nodes in ascending
	// order: C1P's bins are the slack interval lengths and C2P's inputs
	// the per-window slack vectors, both cached for clean nodes and
	// derived from one AppendGaps of the node's busy timeline for dirty
	// ones. The vectors are integer quantities; the min/PeriodicFill
	// accumulation runs over every node in the same order as Evaluate,
	// so the float sum is reproduced exactly.
	e.bins = e.bins[:0]
	for i, n := range b.nodeIDs {
		ws := b.winSlack[i]
		if txn.DirtyNode(n) {
			e.gapBuf = st.Busy(n).AppendGaps(e.gapBuf[:0], window)
			for _, iv := range e.gapBuf {
				e.bins = append(e.bins, int64(iv.Len()))
			}
			e.winBuf = slack.WindowSlackInto(e.winBuf, e.gapBuf, b.prof.Tmin, b.horizon)
			ws = e.winBuf
		} else {
			e.bins = append(e.bins, b.gapLens[i]...)
		}
		min := ws[0]
		for _, v := range ws {
			if v < min {
				min = v
			}
			r.PeriodicFill += math.Sqrt(float64(v))
		}
		r.C2P += min
	}
	// When the all-fit certificate holds, best-fit leaves nothing over
	// and C1P is the +0 the packing would give; otherwise pack.
	if !b.runs.Certify(e.bins) {
		var frac float64
		frac, e.remA = pack.BestFitUnpacked(b.items, e.bins, e.remA)
		r.C1P = 100 * frac
	}

	// Messages, both criteria, in one pass over the message hops the
	// transaction appended: a hop of d.Bytes removes that many free bytes
	// from its slot occurrence (C1m; each bus's block of the cached
	// vector is round-major, so occurrence (round, slot) sits at the
	// block's offset + round*slots + slot) and from the Tmin window
	// holding the occurrence's end (C2m). The occurrence's capacity
	// before the hop is read from the patched copy, because two hops can
	// share an occurrence, and the histogram moves one bin from it to
	// the capacity after. Integer subtractions commute and the histogram
	// is a multiset, so the hop order does not matter.
	e.mBins = append(e.mBins[:0], b.busFree...)
	e.mCaps.Set(&b.busCaps)
	e.busWinS = append(e.busWinS[:0], b.busWin...)
	for _, d := range txn.BusDeltas() {
		bst := st.BusStateAt(int(d.Bus))
		o := b.busOff[d.Bus] + d.Round*bst.Bus().NumSlots() + d.Slot
		old := e.mBins[o]
		e.mBins[o] -= int64(d.Bytes)
		e.mCaps.Shrink(old, e.mBins[o])
		w := int((bst.SlotEnd(d.Round, d.Slot) - 1) / b.busTmin)
		if w >= len(e.busWinS) {
			w = len(e.busWinS) - 1
		}
		e.busWinS[w] -= int64(d.Bytes)
	}

	// Criterion 1, messages: the patched histogram holds the same
	// positive capacities BestFitUnpacked would build from e.mBins. As
	// for C1P, a certificate that holds makes C1m +0 without packing.
	if !b.mRuns.CertifyCaps(&e.mCaps) {
		r.C1m = 100 * e.mCaps.BestFitUnpacked(b.mItems)
	}

	// Criterion 2, messages: the patched window vector's minimum.
	r.C2m = e.busWinS[0]
	for _, v := range e.busWinS[1:] {
		if v < r.C2m {
			r.C2m = v
		}
	}

	r.ShortfallP = tm.Max(0, b.prof.TNeed-r.C2P)
	if b.prof.BNeedBytes > r.C2m {
		r.ShortfallM = b.prof.BNeedBytes - r.C2m
	}
	r.Objective = b.w.W1P*r.C1P + b.w.W1m*r.C1m +
		b.w.W2P*float64(r.ShortfallP) + b.w.W2m*float64(r.ShortfallM)
	return r, full
}
