package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// SAOptions tune the simulated annealing reference strategy. Seed is
// used exactly as given — 0 is a valid seed; the remaining zero values
// select the documented defaults below. Every chain cools geometrically
// from temperature 40 to 0.1, in objective units.
type SAOptions struct {
	// Seed drives the annealer's random walk. Restart chain 0 uses Seed
	// verbatim; chain k derives its independent stream from (Seed, k),
	// so results are reproducible at any parallelism.
	Seed int64
	// Iterations is the number of evaluated neighbors per restart chain.
	// 0 auto-sizes with the application: 60 per process, at least 3000 —
	// enough to serve as the near-optimal reference the deviations in
	// the paper's first experiment are measured against.
	Iterations int
	// Restarts is the number of independent annealing chains; the best
	// chain result wins (ties break toward the lowest chain index). The
	// chains are what Solve fans across workers. Values below 1 mean 1.
	Restarts int
	// ChainOffset shifts the global chain index: local chain c derives
	// its RNG stream from chain index ChainOffset+c. A cluster
	// coordinator uses this to run a slice of a larger restart fan on a
	// remote worker — Restarts=1, ChainOffset=k reproduces exactly chain
	// k of a local Restarts=n run. ChainOffset does not participate in
	// iteration auto-sizing or cooling; it only selects RNG streams.
	ChainOffset int
}

// The annealing temperature schedule in objective units: a chain starts
// at saInitialTemp (early on, moves ~40 objective points uphill are
// frequently accepted) and cools geometrically to saFinalTemp over its
// iterations.
const (
	saInitialTemp = 40
	saFinalTemp   = 0.1
)

// DefaultSAOptions returns the paper-shaped annealing configuration:
// seed 1, a single restart chain and auto-sized iterations (the
// documented meaning of 0).
func DefaultSAOptions() SAOptions {
	return SAOptions{
		Seed:       1,
		Iterations: 0, // auto-size: 60 per process, at least 3000
		Restarts:   1,
	}
}

// normalized resolves the documented zero-value semantics. Seed is
// deliberately left untouched.
func (o SAOptions) normalized(nProcs int) SAOptions {
	if o.Iterations == 0 {
		o.Iterations = 60 * nProcs
		if o.Iterations < 3000 {
			o.Iterations = 3000
		}
	}
	if o.Restarts < 1 {
		o.Restarts = 1
	}
	return o
}

// chainSeed derives the RNG seed of restart chain c. Chain 0 uses the
// caller's seed verbatim so a single-chain run is the classic serial
// annealing walk; higher chains get independent
// streams through a splitmix64 finalizer.
func chainSeed(seed int64, c int) int64 {
	if c == 0 {
		return seed
	}
	x := uint64(seed) + uint64(c)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// saStrategy is the SA strategy: simulated annealing over the full design
// space of the current application — remapping processes, moving
// processes between slacks, and moving messages between slot occurrences
// — minimizing the objective C. With default options it is far slower
// than MH and serves as the near-optimal reference. Restart chains run
// concurrently across the engine's workers; every chain is a
// deterministic function of (problem, options, chain index), so the
// reduced result is identical at any parallelism.
type saStrategy struct{ opts SAOptions }

func (saStrategy) Name() string { return "SA" }

// chainResult is the outcome of one restart chain; best is nil when the
// chain never started.
type chainResult struct {
	interrupted bool
	best        *Design
	report      metrics.Report
}

func (s saStrategy) Run(ctx context.Context, eng *Engine) (*Solution, error) {
	p := eng.Problem()
	o := s.opts.normalized(p.Current.NumProcs())

	in, err := eng.initial(sched.Hints{})
	if err != nil {
		return nil, err
	}

	// Collect the movable objects once; chains share them read-only.
	ix := model.NewIndex(p.Current)
	var procs []*model.Process
	var msgs []*model.Message
	for _, g := range p.Current.Graphs {
		procs = append(procs, g.Procs...)
		msgs = append(msgs, g.Msgs...)
	}

	eng.tracer.Trace(obs.TraceEvent{Kind: "init", Strategy: "SA", Cost: in.rep.Objective})

	// Each chain is a run of the engine. The runs' counts and traces join
	// this run's in chain order after the fan-out has joined, so both are
	// identical at every parallelism level.
	chains := make([]chainResult, o.Restarts)
	runs := make([]*Engine, o.Restarts)
	for c := range runs {
		runs[c] = eng.run()
	}
	eng.ForEach(ctx, o.Restarts, func(c int) {
		chains[c] = s.runChain(ctx, runs[c], c, o, ix, procs, msgs, in.d, in.rep)
	})

	// Reduce by the chain rule (see Reduce); a chain that never started
	// reports the context error and is skipped.
	outs := make([]Outcome, len(chains))
	for c, ch := range chains {
		eng.replay(runs[c])
		if ch.best == nil {
			outs[c].Err = ctx.Err()
			continue
		}
		outs[c] = Outcome{Objective: ch.report.Objective, Interrupted: ch.interrupted}
	}
	best, sum := reduceChains(outs)
	if best < 0 {
		// Cancelled before any chain started: the initial mapping is the
		// best design seen.
		return in.solution("SA", true), nil
	}
	win := chains[best]
	eng.tracer.Trace(obs.TraceEvent{Kind: "decision", Strategy: "SA", Chain: best, Cost: win.report.Objective})
	if win.best != in.d {
		// The one placement after the chains: from the winner's first job
		// that the initial mapping decides differently.
		if err := in.txn.Replace(0, win.best, sched.Move{}); err != nil {
			return nil, fmt.Errorf("core: internal: chain %d best failed to re-schedule: %w", best, err)
		}
		in.d, in.rep = win.best, win.report
	}
	return in.solution("SA", sum.Interrupted || ctx.Err() != nil), nil
}

// runChain executes annealing chain c on run, the chain's own run of the
// engine. The walk reproduces the pre-redesign serial annealer exactly:
// one RNG drives both neighbor generation and acceptance, the
// temperature cools geometrically per drawn neighbor, and infeasible
// neighbors consume an iteration. A draw that leaves the design unchanged scores the current
// objective, so it is counted and accepted with delta 0 without being
// evaluated. Each neighbor is a move over the chain's current design,
// which an accepted move replaces.
func (s saStrategy) runChain(ctx context.Context, run *Engine, c int, o SAOptions,
	ix *model.Index, procs []*model.Process, msgs []*model.Message,
	initial *Design, report0 metrics.Report) chainResult {

	p := run.Problem()
	rng := rand.New(rand.NewSource(chainSeed(o.Seed, o.ChainOffset+c)))

	cur := initial
	res := chainResult{best: initial, report: report0}

	curObj := report0.Objective
	temp := float64(saInitialTemp)
	cooling := math.Pow(saFinalTemp/saInitialTemp, 1/float64(o.Iterations))
	var accepts, rejects int64

	for i := 0; i < o.Iterations; i++ {
		if ctx.Err() != nil {
			res.interrupted = true
			break
		}
		mv, changed := neighbor(rng, p, ix, procs, msgs, cur)
		temp *= cooling
		if !changed {
			run.count(1) // the current design: delta 0, accepted
			accepts++
		} else if rep2, ok := run.Evaluate(cur, mv); !ok {
			continue // infeasible neighbor
		} else if delta := rep2.Objective - curObj; delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			accepts++
			cur, curObj = cur.With(mv), rep2.Objective
			if rep2.Objective < res.report.Objective {
				res.best = cur
				res.report = rep2
				run.tracer.Trace(obs.TraceEvent{Kind: "sa.best", Chain: c, Iter: i + 1, Cost: rep2.Objective})
			}
		} else {
			rejects++
		}
		if (i+1)%1000 == 0 {
			run.tracer.Trace(obs.TraceEvent{
				Kind: "sa.window", Chain: c, Iter: i + 1,
				Accepts: accepts, Rejects: rejects,
			})
		}
	}

	run.tracer.Trace(obs.TraceEvent{Kind: "sa.chain", Chain: c, Cost: res.report.Objective})
	return res
}

// neighbor draws a random design transformation over cur: remap a
// process (40%), move a process to a random slack position (40%), or
// move a message to a random slot occurrence (20%, when there are
// messages). changed reports whether the move changes cur, an absent
// hint counting as 0.
func neighbor(rng *rand.Rand, p *Problem, ix *model.Index,
	procs []*model.Process, msgs []*model.Message, cur *Design) (mv sched.Move, changed bool) {

	kind := rng.Float64()
	if kind < 0.4 || (kind >= 0.8 && len(msgs) == 0) {
		// Remap a random process to a random allowed node, clearing its
		// position hint so the scheduler packs it ASAP on the new node.
		proc := procs[rng.Intn(len(procs))]
		nodes := cur.Order().AllowedNodes(proc.ID)
		node := nodes[rng.Intn(len(nodes))]
		if node == cur.Node(proc.ID) && cur.ProcStart(proc.ID) == 0 {
			return sched.Move{}, false
		}
		return sched.Move{Kind: sched.MoveProc, Proc: proc.ID, Node: node}, true
	}
	if kind < 0.8 {
		// Move a random process to a random start offset in its period.
		proc := procs[rng.Intn(len(procs))]
		g := ix.GraphOf[proc.ID]
		node := cur.Node(proc.ID)
		span := g.Period - proc.WCET[node]
		if span <= 0 {
			return sched.Move{}, false
		}
		off := tm.Time(rng.Int63n(int64(span)))
		if off == cur.ProcStart(proc.ID) {
			return sched.Move{}, false
		}
		return sched.Move{Kind: sched.MoveProc, Proc: proc.ID, Node: node, Start: off}, true
	}
	// Move a random message to a random slot-start offset in its period.
	m := msgs[rng.Intn(len(msgs))]
	g := ix.MsgGraph[m.ID]
	off := tm.Time(rng.Int63n(int64(g.Period)))
	if off == cur.MsgStart(m.ID) {
		return sched.Move{}, false
	}
	return sched.Move{Kind: sched.MoveMsg, Msg: m.ID, Start: off}, true
}
