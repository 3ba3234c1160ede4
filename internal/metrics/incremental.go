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
// base schedule: per-node slack interval lengths and per-window slack
// vectors, the per-occurrence and per-window free bus capacity, the
// histogram of the per-occurrence free bytes, and the future-application
// item lists (in decreasing size, the order the best-fit-decreasing
// packing takes them), also kept as pack.Runs so an evaluation can try
// the all-fit certificate before it packs. Building one costs one slack
// analysis. What an evaluation derives further from a node's base
// inputs (the √ of its windows and its terms of the certificate) the
// evaluator derives on first use and keeps itself.
//
// A Baseline is immutable after construction and safe to share across
// evaluation workers and across a session's commits; everything mutable
// lives in the per-worker Incremental evaluators it hands out.
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
// worker owns one: the evaluator keeps the parts of its last score and
// its scratch across calls, and is not safe for concurrent use. Its
// first evaluation derives every score it reads.
func (b *Baseline) Evaluator() *Incremental {
	n, k, w := len(b.nodeIDs), len(b.runs), b.windows()
	e := &Incremental{
		b:      b,
		scores: make([]nodeScore, 2*n),
		sqrt:   make([]float64, 2*n*w),
		cnt:    make([]int64, 2*n*k),
		used:   make([]int, n),
		fill:   make([]float64, n+1),
		groups: make([][]int64, n),
		terms:  make([][]int64, n),
		mBins:  slices.Clone(b.busFree),
		busWin: slices.Clone(b.busWin),
	}
	for i := range n {
		e.scores[i].gaps = b.gapLens[i]
		e.used[i] = -1
	}
	e.mCaps.Set(&b.busCaps)
	return e
}

// windows returns the number of Tmin windows, the same for every node.
func (b *Baseline) windows() int {
	if len(b.winSlack) == 0 {
		return 0
	}
	return len(b.winSlack[0])
}

// Incremental scores candidate designs against a Baseline. It keeps the
// parts of its last score and rescores only what the next state changes
// (see EvaluateTxn). The resulting Report is byte-identical to
// Evaluate's on the same state, whatever the evaluator scored before:
// integer quantities (window slack, free bytes, certificate terms) are
// kept or recomputed exactly, and the floating-point accumulations (packing
// fractions, PeriodicFill, the objective) take the identical operation
// sequence in the identical order. What it keeps is keyed by content, a
// node's busy timeline and a hop's slot occurrence and bytes, never by
// the identity of the state or the transaction.
type Incremental struct {
	b *Baseline

	// Processes, by node position i of n. Score i is node i's score on
	// the base timeline and score n+i its kept score, on the busy
	// timeline the node had when it was last dirty and derived; each is
	// derived on first use. Score j is scores[j], its √ values
	// sqrt[j·w:(j+1)·w] for the w windows and its terms of the all-fit
	// certificate cnt[j·k:(j+1)·k] for the k runs, counted when the
	// certificate first reads them. used[i] is the score the last
	// evaluation read (-1 before the first), fill[i] the PeriodicFill sum
	// before node i, and groups[i] and terms[i] the used score's slack
	// lengths and certificate terms.
	scores []nodeScore
	sqrt   []float64
	cnt    []int64
	used   []int
	fill   []float64
	groups [][]int64
	terms  [][]int64

	// Messages: the base's per-occurrence free bytes, their histogram
	// (the C1m bins) and the per-window free bytes summed over buses,
	// each with hops, the last evaluation's BusDeltas, taken out.
	hops   []hop
	mBins  []int64
	mCaps  pack.Caps
	busWin []int64

	// Over the evaluator's life: the dirty nodes whose kept score was
	// read without deriving it again, and the hops left applied. The
	// tests read them.
	reusedNodes, keptHops int

	// Scratch reused across evaluations.
	gapBuf []tm.Interval
	winBuf []tm.Time
	bins   []int64
	remA   []int64
	mPack  pack.Caps
}

// nodeScore is what one node timeline contributes to a Report besides
// its √ values and certificate terms: its slack interval lengths (C1P's
// bins) and its windows' minimum (C2P's term). A kept score also holds
// a copy of the busy timeline it was derived from.
type nodeScore struct {
	timeline []tm.Interval
	gaps     []int64
	min      tm.Time
	ok       bool // derived
}

// hop is a message hop as the bus views hold it: bytes taken from
// occurrence (round, slot) of bus bus, which is element occ of the
// per-occurrence free bytes and counts in Tmin window win.
type hop struct {
	bus         model.BusID
	round, slot int
	bytes       int64
	occ, win    int
}

// is reports whether d takes what h takes from the same occurrence.
func (h *hop) is(d *sched.MsgEntry) bool {
	return h.bus == d.Bus && h.round == d.Round && h.slot == d.Slot && h.bytes == int64(d.Bytes)
}

// EvaluateTxn scores st, which must be the baseline's base schedule with
// the open transaction txn applied on top. The Report is byte-identical
// to Evaluate's.
//
// The evaluator rescores only what differs from its previous
// evaluation:
//   - A clean node reads its base score. A dirty node whose busy
//     timeline equals, element by element, the one its kept score was
//     derived from reads that score; any other dirty node is derived
//     again, from one AppendGaps of its timeline.
//   - PeriodicFill restarts from its kept running sum before the first
//     node whose score differs from the previous evaluation's and adds
//     the √ values of every node from there, in node order: the same
//     additions, in the same order, as Evaluate's.
//   - C1P's all-fit certificate sums the nodes' terms
//     (pack.Runs.CertifyGroups), each counted the first time the
//     certificate reads it after its score was derived. Only when it
//     fails are the nodes' slack lengths gathered and packed.
//   - The bus views are kept with the hop list they reflect. Each kept
//     hop that differs from txn.BusDeltas at the same position is given
//     back (pack.Caps.Grow) and each differing new hop taken
//     (pack.Caps.Shrink). The views are integer sums and a histogram is
//     a multiset, so they end as patching the base with every hop
//     would leave them. The C1m certificate reads the histogram, and
//     where it fails a copy is packed.
//
// full reports that every node is dirty, so no node's base score was
// read. It classifies the evaluation for observability; dirty nodes'
// kept scores may still have been reused.
func (e *Incremental) EvaluateTxn(st *sched.State, txn *sched.Txn) (rep Report, full bool) {
	b := e.b
	n, k, w := len(b.nodeIDs), len(b.runs), b.windows()
	full = txn.DirtyNodeCount() >= n

	var r Report
	first := n // the first node whose score differs from the last evaluation's
	for i, id := range b.nodeIDs {
		j, changed := i, false
		if txn.DirtyNode(id) {
			j = n + i
			s, busy := &e.scores[j], st.Busy(id)
			if s.ok && slices.Equal(busy.Intervals(), s.timeline) {
				e.reusedNodes++
			} else {
				s.timeline = append(s.timeline[:0], busy.Intervals()...)
				e.gapBuf = busy.AppendGaps(slices.Grow(e.gapBuf[:0], busy.Len()+1), tm.Iv(0, b.horizon))
				s.gaps = slices.Grow(s.gaps[:0], len(e.gapBuf))
				for _, iv := range e.gapBuf {
					s.gaps = append(s.gaps, int64(iv.Len()))
				}
				e.winBuf = slack.WindowSlackInto(e.winBuf, e.gapBuf, b.prof.Tmin, b.horizon)
				e.finish(j, e.winBuf)
				changed = true
			}
		} else if !e.scores[j].ok {
			e.finish(j, b.winSlack[i])
			changed = true
		}
		if changed || e.used[i] != j {
			e.used[i], e.groups[i], e.terms[i] = j, e.scores[j].gaps, e.cnt[j*k:(j+1)*k]
			first = min(first, i)
		}
		r.C2P += e.scores[j].min
	}
	pf := e.fill[first]
	for i := first; i < n; i++ {
		j := e.used[i]
		for _, v := range e.sqrt[j*w : (j+1)*w] {
			pf += v
		}
		e.fill[i+1] = pf
	}
	r.PeriodicFill = pf
	// When the all-fit certificate holds, best-fit leaves nothing over
	// and C1P is the +0 the packing would give; otherwise pack.
	if !b.runs.CertifyGroups(e.groups, e.terms) {
		e.bins = e.bins[:0]
		for _, g := range e.groups {
			e.bins = append(e.bins, g...)
		}
		var frac float64
		frac, e.remA = pack.BestFitUnpacked(b.items, e.bins, e.remA)
		r.C1P = 100 * frac
	}
	// Messages: give back the kept hops the transaction no longer has at
	// their position, then take the transaction's hops that differ. Each
	// bus's block of the per-occurrence bytes is round-major, so
	// occurrence (round, slot) sits at the block's offset +
	// round*slots + slot, and a hop counts in the Tmin window that holds
	// its occurrence's end (C2m).
	deltas := txn.BusDeltas()
	e.hops = slices.Grow(e.hops, max(len(deltas)-len(e.hops), 0))
	for j := range e.hops {
		if j < len(deltas) && e.hops[j].is(&deltas[j]) {
			e.keptHops++
			continue
		}
		e.take(&e.hops[j], -e.hops[j].bytes)
	}
	for j := range deltas {
		d := &deltas[j]
		if j < len(e.hops) && e.hops[j].is(d) {
			continue
		}
		bst := st.BusStateAt(int(d.Bus))
		h := hop{
			bus: d.Bus, round: d.Round, slot: d.Slot, bytes: int64(d.Bytes),
			occ: b.busOff[d.Bus] + d.Round*bst.Bus().NumSlots() + d.Slot,
			win: min(int((bst.SlotEnd(d.Round, d.Slot)-1)/b.busTmin), len(e.busWin)-1),
		}
		e.take(&h, h.bytes)
		if j < len(e.hops) {
			e.hops[j] = h
		} else {
			e.hops = append(e.hops, h)
		}
	}
	e.hops = e.hops[:len(deltas)]

	// Criterion 1, messages: the histogram holds the same positive
	// capacities BestFitUnpacked would build from e.mBins. As for C1P, a
	// certificate that holds makes C1m +0 without packing; otherwise a
	// copy is packed, because packing consumes the histogram.
	if !b.mRuns.CertifyCaps(&e.mCaps) {
		e.mPack.Set(&e.mCaps)
		r.C1m = 100 * e.mPack.BestFitUnpacked(b.mItems)
	}

	// Criterion 2, messages: the window vector's minimum.
	r.C2m = slices.Min(e.busWin)

	r.ShortfallP = tm.Max(0, b.prof.TNeed-r.C2P)
	if b.prof.BNeedBytes > r.C2m {
		r.ShortfallM = b.prof.BNeedBytes - r.C2m
	}
	r.Objective = b.w.W1P*r.C1P + b.w.W1m*r.C1m +
		b.w.W2P*float64(r.ShortfallP) + b.w.W2m*float64(r.ShortfallM)
	return r, full
}

// finish derives the rest of score j from its window slack win: the
// windows' minimum and their √ values. Its certificate terms are left
// to be counted.
func (e *Incremental) finish(j int, win []tm.Time) {
	s, w, k := &e.scores[j], len(win), len(e.b.runs)
	sqrt := e.sqrt[j*w : (j+1)*w]
	s.min = win[0]
	for x, v := range win {
		s.min = min(s.min, v)
		sqrt[x] = math.Sqrt(float64(v))
	}
	for x := j * k; x < (j+1)*k; x++ {
		e.cnt[x] = -1
	}
	s.ok = true
}

// take moves bytes out of h's slot occurrence and its Tmin window, or
// gives them back when bytes is negative, and moves the occurrence's bin
// in the histogram.
func (e *Incremental) take(h *hop, bytes int64) {
	old := e.mBins[h.occ]
	e.mBins[h.occ] = old - bytes
	if bytes > 0 {
		e.mCaps.Shrink(old, old-bytes)
	} else {
		e.mCaps.Grow(old, old-bytes)
	}
	e.busWin[h.win] -= bytes
}
