package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
	"incdes/internal/slack"
	"incdes/internal/tm"
)

// MHOptions tune the mapping heuristic. Every zero-valued tuning field
// selects the corresponding DefaultMHOptions value — defaults sized like
// the paper's: a small set of high-potential candidates per iteration,
// so MH stays orders of magnitude cheaper than annealing. Boolean
// ablation switches and SeedHints are used as given.
type MHOptions struct {
	// MaxIterations bounds the improvement loop (default 50).
	MaxIterations int
	// ProcCandidates is how many high-potential processes are examined
	// per iteration (default 5).
	ProcCandidates int
	// TargetsPerNode is how many slack positions are tried per candidate
	// process and node (default 2; the ASAP position is always tried).
	TargetsPerNode int
	// MsgCandidates is how many messages are examined per iteration
	// (default 4).
	MsgCandidates int
	// DisableMsgMoves turns off message transformations (ablation).
	DisableMsgMoves bool
	// RandomCandidates replaces potential-based candidate selection with
	// the first processes in ID order (ablation of the "highest
	// potential" rule).
	RandomCandidates bool
	// SeedHints are placement hints applied to the initial mapping and
	// kept as the starting design; individual moves then override them
	// per process or message. Used when the caller wants MH to improve a
	// particular layout (e.g. a deliberately spread-out one) instead of
	// the ASAP-packed initial mapping. An entry for an ID outside the
	// current application, or of 0 or less, never affects placement and
	// is not kept in Solution.Hints.
	SeedHints sched.Hints
}

// DefaultMHOptions returns the paper-sized mapping-heuristic tuning: 50
// improvement iterations over 5 process and 4 message candidates and 2
// slack targets per node.
func DefaultMHOptions() MHOptions {
	return MHOptions{
		MaxIterations:  50,
		ProcCandidates: 5,
		TargetsPerNode: 2,
		MsgCandidates:  4,
	}
}

// Fixed mapping-heuristic tuning: each candidate process is tried on
// its current node plus the mhTargetNodes allowed nodes with the most
// total slack, each candidate message in mhMsgTargets alternative slot
// occurrences, and a move is applied when it lowers the objective by
// more than mhMinImprovement (any strict improvement).
const (
	mhTargetNodes    = 3
	mhMsgTargets     = 2
	mhMinImprovement = 1e-9
)

// normalized resolves the documented zero-value semantics against
// DefaultMHOptions.
func (o MHOptions) normalized() MHOptions {
	d := DefaultMHOptions()
	if o.MaxIterations == 0 {
		o.MaxIterations = d.MaxIterations
	}
	if o.ProcCandidates == 0 {
		o.ProcCandidates = d.ProcCandidates
	}
	if o.TargetsPerNode == 0 {
		o.TargetsPerNode = d.TargetsPerNode
	}
	if o.MsgCandidates == 0 {
		o.MsgCandidates = d.MsgCandidates
	}
	return o
}

// mhStrategy is the MH strategy: start from the initial mapping, then
// repeatedly apply the single design transformation that improves the
// objective most, examining only the transformations with the highest
// potential — processes bordering the smallest slack fragments (moving
// them merges slack) and messages in the most congested slot occurrences.
//
// Each iteration enumerates its candidate moves over the iteration's
// design up front, fans the evaluations across the engine's workers, and
// then reduces the results in enumeration order — which makes the
// outcome identical to the serial first-improvement scan at every
// parallelism level. The enumeration lists each process's moves
// together, so a worker's consecutive candidates mostly differ from
// the incumbent in one process and it re-places little besides.
type mhStrategy struct{ opts MHOptions }

func (mhStrategy) Name() string { return "MH" }

// enumerate builds the iteration's candidate moves over the current
// design cur, whose schedule is st.
func (s mhStrategy) enumerate(eng *Engine, ix *model.Index, st *sched.State, cur *Design, o MHOptions) []sched.Move {
	p := eng.Problem()
	var moves []sched.Move

	// Process moves: candidate x (node, slack position). Candidates
	// come from two potential sources: processes bordering the
	// smallest slack fragments (criterion 1) and processes inside the
	// tightest Tmin windows (criterion 2).
	cands := procCandidates(st, p.Current, ix, o.ProcCandidates, o.RandomCandidates)
	cands = mergeCandidates(cands,
		windowCandidates(st, p.Current, p.Profile.Tmin, 1), o.ProcCandidates+len(p.Sys.Arch.Nodes))
	for _, cand := range cands {
		proc := ix.Proc[cand]
		g := ix.GraphOf[cand]
		home, homeStart := cur.Node(cand), cur.ProcStart(cand)
		for _, node := range targetNodes(st, cur.Order().AllowedNodes(cand), home, mhTargetNodes) {
			offs := targetOffsets(st, node, proc.WCET[node], g.Period, p.Profile.Tmin, o.TargetsPerNode)
			for _, off := range offs {
				if node == home && homeStart == off {
					continue // the current design, not a move
				}
				moves = append(moves, sched.Move{Kind: sched.MoveProc, Proc: cand, Node: node, Start: off})
			}
		}
	}

	// Message moves: candidate x later slot occurrence.
	if !o.DisableMsgMoves {
		for _, mc := range msgCandidates(st, p.Current, o.MsgCandidates) {
			g := ix.MsgGraph[mc.id]
			for _, off := range msgTargetOffsets(st, mc, g.Period, mhMsgTargets) {
				if cur.MsgStart(mc.id) == off {
					continue
				}
				moves = append(moves, sched.Move{Kind: sched.MoveMsg, Msg: mc.id, Start: off})
			}
		}
	}
	return moves
}

func (s mhStrategy) Run(ctx context.Context, eng *Engine) (*Solution, error) {
	p := eng.Problem()
	o := s.opts.normalized()

	mapping, st, err := p.initial(o.SeedHints)
	if err != nil {
		return nil, err
	}
	cur, err := eng.NewDesign(mapping, o.SeedHints)
	if err != nil {
		return nil, err
	}
	eng.count(1)
	report := metrics.Evaluate(st, p.Profile, p.Weights)
	ix := model.NewIndex(p.Current)
	eng.tracer.Trace(obs.TraceEvent{Kind: "init", Strategy: "MH", Cost: report.Objective})

	// better reports whether a is a strict improvement over b: lower
	// objective, or — when several bottleneck windows tie and the
	// min-based objective is flat — equal objective with a strictly
	// higher periodic fill.
	better := func(a, b metrics.Report) bool {
		if a.Objective < b.Objective-mhMinImprovement {
			return true
		}
		return a.Objective < b.Objective+mhMinImprovement &&
			a.PeriodicFill > b.PeriodicFill+0.5
	}

	interrupted := false
	stop := "max-iterations"
	for iter := 0; iter < o.MaxIterations; iter++ {
		if ctx.Err() != nil {
			interrupted, stop = true, "cancelled"
			break
		}
		moves := s.enumerate(eng, ix, st, cur, o)

		type outcome struct {
			report metrics.Report
			ok     bool
		}
		results := make([]outcome, len(moves))
		eng.ForEach(ctx, len(moves), func(i int) {
			results[i].report, results[i].ok = eng.Evaluate(cur, moves[i])
		})
		if ctx.Err() != nil {
			// A partial candidate scan must not steer the search: keep
			// the last fully evaluated design as the best-so-far result.
			interrupted, stop = true, "cancelled"
			break
		}

		// Reduce in enumeration order, exactly like the serial
		// first-improvement scan. The candidate trace events are emitted
		// here — after the parallel fan-out has joined — in that same
		// order, so the trace is identical at every parallelism level.
		bestIdx := -1
		var bestRep metrics.Report
		for i, r := range results {
			if eng.Tracing() {
				eng.tracer.Trace(obs.TraceEvent{
					Kind: "candidate", Iter: iter + 1, Index: i,
					Cost: r.report.Objective, Feasible: r.ok,
				})
			}
			if !r.ok {
				continue // infeasible: requirement (a) rules it out
			}
			ref := report
			if bestIdx >= 0 {
				ref = bestRep
			}
			if better(r.report, ref) {
				bestIdx, bestRep = i, r.report
			}
		}
		if bestIdx < 0 {
			stop = "local-optimum" // no examined transformation improves C
			break
		}
		cur, report = cur.With(moves[bestIdx]), bestRep
		st, err = eng.Materialize(cur)
		if err != nil {
			return nil, fmt.Errorf("core: internal: winning alternative failed to re-schedule: %w", err)
		}
		eng.tracer.Trace(obs.TraceEvent{Kind: "move", Iter: iter + 1, Index: bestIdx, Cost: report.Objective})
	}
	eng.tracer.Trace(obs.TraceEvent{Kind: "stop", Strategy: "MH", Note: stop})
	eng.tracer.Trace(obs.TraceEvent{Kind: "decision", Strategy: "MH", Cost: report.Objective})

	return &Solution{
		Strategy:    "MH",
		Mapping:     cur.Mapping(),
		Hints:       cur.Hints(),
		State:       st,
		Report:      report,
		Interrupted: interrupted,
	}, nil
}

// targetNodes selects the processors worth trying for a candidate
// process: its current node plus the k nodes of allowed (its allowed
// nodes, ascending) with the most total slack.
func targetNodes(st *sched.State, allowed []model.NodeID, current model.NodeID, k int) []model.NodeID {
	if len(allowed) <= k+1 {
		return allowed
	}
	slackOf := func(n model.NodeID) tm.Time {
		return st.Horizon() - st.Busy(n).Total()
	}
	sorted := append([]model.NodeID(nil), allowed...)
	sort.Slice(sorted, func(i, j int) bool {
		si, sj := slackOf(sorted[i]), slackOf(sorted[j])
		if si != sj {
			return si > sj
		}
		return sorted[i] < sorted[j]
	})
	out := []model.NodeID{current}
	for _, n := range sorted {
		if len(out) > k {
			break
		}
		if n != current {
			out = append(out, n)
		}
	}
	return out
}

// procCandidates returns the processes of the current application with the
// highest potential to improve the design when moved: those whose
// schedule entries border the smallest non-zero slack fragments on their
// processor. Moving such a process merges its fragment with the slack
// freed by the move.
func procCandidates(st *sched.State, app *model.Application, ix *model.Index,
	k int, randomOrder bool) []model.ProcID {

	if randomOrder {
		// Ablation mode: just take the first k processes by ID.
		var ids []model.ProcID
		for _, g := range app.Graphs {
			for _, p := range g.Procs {
				ids = append(ids, p.ID)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if len(ids) > k {
			ids = ids[:k]
		}
		return ids
	}

	gapsByNode := map[model.NodeID][]tm.Interval{}
	for _, n := range st.System().Arch.Nodes {
		gapsByNode[n.ID] = st.Busy(n.ID).Gaps(tm.Iv(0, st.Horizon()))
	}
	scores := map[model.ProcID]float64{}
	for _, e := range st.ProcEntries() {
		if e.App != app.ID {
			continue
		}
		score := fragmentScore(gapsByNode[e.Node], e.Start, e.End)
		if cur, ok := scores[e.Proc]; !ok || score < cur {
			scores[e.Proc] = score
		}
	}
	ids := make([]model.ProcID, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if scores[ids[i]] != scores[ids[j]] {
			return scores[ids[i]] < scores[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	return ids
}

// mergeCandidates concatenates two candidate lists, removing duplicates
// and capping the result at max entries.
func mergeCandidates(a, b []model.ProcID, max int) []model.ProcID {
	seen := map[model.ProcID]bool{}
	var out []model.ProcID
	for _, list := range [][]model.ProcID{a, b} {
		for _, id := range list {
			if !seen[id] && len(out) < max {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// windowCandidates returns processes of the current application running
// inside the tightest Tmin windows: moving them out directly raises the
// minimum periodic slack (criterion 2). C2P sums one minimum per node, so
// candidates are selected per node — up to perNode processes from each
// node's own bottleneck window — rather than globally, which would let a
// single congested node monopolize the candidate set.
func windowCandidates(st *sched.State, app *model.Application, tmin tm.Time, perNode int) []model.ProcID {
	if tmin <= 0 || perNode <= 0 {
		return nil
	}
	horizon := st.Horizon()
	// A horizon shorter than Tmin is one clipped window, as
	// slack.WindowSlack counts it.
	tmin = min(tmin, horizon)
	if perNode > 2 {
		perNode = 2
	}

	// Group the current application's entries by node.
	byNode := map[model.NodeID][]sched.ProcEntry{}
	for _, e := range st.ProcEntries() {
		if e.App == app.ID {
			byNode[e.Node] = append(byNode[e.Node], e)
		}
	}

	var ids []model.ProcID
	seen := map[model.ProcID]bool{}
	for _, n := range st.System().Arch.NodeIDs() {
		// This node's first minimum-slack window.
		ws := slack.WindowSlack(st.Busy(n).Gaps(tm.Iv(0, horizon)), tmin, horizon)
		minW := 0
		for w := range ws {
			if ws[w] < ws[minW] {
				minW = w
			}
		}
		win := tm.Iv(tm.Time(minW)*tmin, tm.Time(minW+1)*tmin)
		// Current-application processes overlapping the bottleneck window,
		// largest overlap first (moving them frees the most).
		cands := make([]sched.ProcEntry, 0, 4)
		for _, e := range byNode[n] {
			if tm.Iv(e.Start, e.End).Overlaps(win) {
				cands = append(cands, e)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			oi := tm.Iv(cands[i].Start, cands[i].End).Intersect(win).Len()
			oj := tm.Iv(cands[j].Start, cands[j].End).Intersect(win).Len()
			if oi != oj {
				return oi > oj
			}
			return cands[i].Proc < cands[j].Proc
		})
		added := 0
		for _, e := range cands {
			if added >= perNode {
				break
			}
			if !seen[e.Proc] {
				seen[e.Proc] = true
				ids = append(ids, e.Proc)
				added++
			}
		}
	}
	return ids
}

// fragmentScore returns the size of the smallest non-empty slack fragment
// directly adjacent to the busy interval [start, end); +Inf when no
// fragment borders it.
func fragmentScore(gaps []tm.Interval, start, end tm.Time) float64 {
	score := math.Inf(1)
	for _, g := range gaps {
		if g.End == start || g.Start == end {
			score = math.Min(score, float64(g.Len()))
		}
		if g.Start > end {
			break
		}
	}
	return score
}

// targetOffsets enumerates slack positions on a node where a process of
// the given WCET fits, expressed as start offsets relative to the graph
// release. Two kinds of position have the highest potential: the start of
// the largest slack interval (keeps slack contiguous, criterion 1) and
// positions inside the Tmin windows that currently hold the most slack
// (evens out the periodic distribution, criterion 2). The ASAP position
// (offset 0) is always included.
func targetOffsets(st *sched.State, node model.NodeID, wcet, period, tmin tm.Time, k int) []tm.Time {
	gaps := st.Busy(node).Gaps(tm.Iv(0, st.Horizon()))
	offs := []tm.Time{0}
	seen := map[tm.Time]bool{0: true}
	add := func(start tm.Time) {
		off := start % period
		if off+wcet > period {
			return // would always straddle the deadline boundary
		}
		if !seen[off] {
			seen[off] = true
			offs = append(offs, off)
		}
	}

	// The start of the largest fitting slack interval.
	var largest tm.Interval
	for _, g := range gaps {
		if g.Len() >= wcet && g.Len() > largest.Len() {
			largest = g
		}
	}
	if !largest.Empty() {
		add(largest.Start)
	}

	// The earliest fitting position inside each of the k emptiest Tmin
	// windows of this node.
	if tmin > 0 && tmin <= st.Horizon() {
		nWin := int(st.Horizon() / tmin)
		type winInfo struct {
			idx   int
			slack tm.Time
			start tm.Time // earliest fitting start in the window, -1 if none
		}
		wins := make([]winInfo, 0, nWin)
		for w := 0; w < nWin; w++ {
			win := tm.Iv(tm.Time(w)*tmin, tm.Time(w+1)*tmin)
			info := winInfo{idx: w, start: -1}
			for _, g := range gaps {
				iv := g.Intersect(win)
				info.slack += iv.Len()
				// A process placed at iv.Start must fit in the gap g
				// (it may spill into the next window, which is fine).
				if info.start < 0 && !iv.Empty() && g.End-iv.Start >= wcet {
					info.start = iv.Start
				}
			}
			wins = append(wins, info)
		}
		sort.Slice(wins, func(i, j int) bool {
			if wins[i].slack != wins[j].slack {
				return wins[i].slack > wins[j].slack
			}
			return wins[i].idx < wins[j].idx
		})
		added := 0
		for _, w := range wins {
			if added >= k {
				break
			}
			if w.start >= 0 {
				add(w.start)
				added++
			}
		}
	}
	return offs
}

// msgCandidate is one message of the current design with its bus context:
// the hop (sender, bus) sitting in the most congested slot occurrence.
type msgCandidate struct {
	id     model.MsgID
	bytes  int
	sender model.NodeID
	bus    model.BusID
	free   int // free bytes left in its current slot occurrence
}

// msgCandidates returns the messages in the most congested slot
// occurrences: moving them out has the highest potential to recover
// contiguous bus slack. Every hop of a multi-hop occurrence competes;
// the candidate records the hop whose slot occurrence is fullest.
func msgCandidates(st *sched.State, app *model.Application, k int) []msgCandidate {
	seen := map[model.MsgID]msgCandidate{}
	for _, e := range st.MsgEntries() {
		if e.App != app.ID {
			continue
		}
		free := st.BusStateAt(int(e.Bus)).Free(e.Round, e.Slot)
		if cur, ok := seen[e.Msg]; !ok || free < cur.free {
			seen[e.Msg] = msgCandidate{id: e.Msg, bytes: e.Bytes, sender: e.Sender, bus: e.Bus, free: free}
		}
	}
	cands := make([]msgCandidate, 0, len(seen))
	for _, c := range seen {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].free != cands[j].free {
			return cands[i].free < cands[j].free
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// msgTargetOffsets enumerates alternative slot occurrences for a message,
// as slot-start offsets relative to the graph release: the emptiest slots
// of the sender's node on the candidate hop's bus, plus the ASAP position.
func msgTargetOffsets(st *sched.State, mc msgCandidate, period tm.Time, k int) []tm.Time {
	bus := st.BusStateAt(int(mc.bus))
	slots := bus.Bus().SlotsOf(mc.sender)
	type occ struct {
		start tm.Time
		free  int
	}
	var cands []occ
	for r := 0; r < bus.Rounds(); r++ {
		for _, sl := range slots {
			if free := bus.Free(r, sl); free >= mc.bytes {
				cands = append(cands, occ{start: bus.SlotStart(r, sl), free: free})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].free != cands[j].free {
			return cands[i].free > cands[j].free
		}
		return cands[i].start < cands[j].start
	})
	offs := []tm.Time{0}
	seen := map[tm.Time]bool{0: true}
	for _, c := range cands {
		if len(offs) > k {
			break
		}
		off := c.start % period
		if !seen[off] {
			seen[off] = true
			offs = append(offs, off)
		}
	}
	return offs
}
