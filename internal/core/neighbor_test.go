package core_test

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"incdes/internal/core"
	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// sameDecisions reports whether two designs make the same decisions:
// equal mappings and equal hints, an absent hint counting as 0 (the
// scheduler's earliest start either way).
func sameDecisions(m1 model.Mapping, h1 sched.Hints, m2 model.Mapping, h2 sched.Hints) bool {
	if !reflect.DeepEqual(m1, m2) {
		return false
	}
	for id, v := range h1.ProcStart {
		if h2.ProcStart[id] != v {
			return false
		}
	}
	for id, v := range h2.ProcStart {
		if h1.ProcStart[id] != v {
			return false
		}
	}
	for id, v := range h1.MsgStart {
		if h2.MsgStart[id] != v {
			return false
		}
	}
	for id, v := range h2.MsgStart {
		if h1.MsgStart[id] != v {
			return false
		}
	}
	return true
}

// cloneHints returns an independent copy of h.
func cloneHints(h sched.Hints) sched.Hints {
	return sched.Hints{ProcStart: maps.Clone(h.ProcStart), MsgStart: maps.Clone(h.MsgStart)}
}

// setMsgStart returns h with message m's hint set (or removed when
// start <= 0), leaving h unchanged.
func setMsgStart(h sched.Hints, m model.MsgID, start tm.Time) sched.Hints {
	h.MsgStart = maps.Clone(h.MsgStart)
	if h.MsgStart == nil {
		h.MsgStart = map[model.MsgID]tm.Time{}
	}
	if start <= 0 {
		delete(h.MsgStart, m)
	} else {
		h.MsgStart[m] = start
	}
	return h
}

// referenceNeighbor is the annealing move without the unchanged-draw
// rule: it always applies the drawn transformation, consuming the RNG
// exactly as the annealer's neighbor does.
func referenceNeighbor(rng *rand.Rand, p *core.Problem, mapping model.Mapping, hints sched.Hints) (model.Mapping, sched.Hints) {
	ix := model.NewIndex(p.Current)
	var procs []*model.Process
	var msgs []*model.Message
	for _, g := range p.Current.Graphs {
		procs = append(procs, g.Procs...)
		msgs = append(msgs, g.Msgs...)
	}
	kind := rng.Float64()
	if kind < 0.4 || (kind >= 0.8 && len(msgs) == 0) {
		proc := procs[rng.Intn(len(procs))]
		nodes := proc.AllowedNodes()
		nm := mapping.Clone()
		nm[proc.ID] = nodes[rng.Intn(len(nodes))]
		return nm, hints.SetProcStart(proc.ID, 0)
	}
	if kind < 0.8 {
		proc := procs[rng.Intn(len(procs))]
		span := ix.GraphOf[proc.ID].Period - proc.WCET[mapping[proc.ID]]
		if span <= 0 {
			return mapping, hints
		}
		return mapping, hints.SetProcStart(proc.ID, tm.Time(rng.Int63n(int64(span))))
	}
	m := msgs[rng.Intn(len(msgs))]
	return mapping, setMsgStart(hints, m.ID, tm.Time(rng.Int63n(int64(ix.MsgGraph[m.ID].Period))))
}

// shortPeriodProblem is a hand-built problem whose short period makes
// the rare unchanged draws common: a drawn offset often equals the
// current hint, and process A fills the whole period on node n1, so
// an offset move of A there has no room to draw from.
func shortPeriodProblem(t *testing.T) *core.Problem {
	t.Helper()
	b := model.NewBuilder()
	n0 := b.Node("n0")
	n1 := b.Node("n1")
	b.Bus([]model.NodeID{n0, n1}, []int{4, 4}, 1, 2)
	g := b.App("current").Graph("G", 24, 24)
	g.Proc("A", map[model.NodeID]tm.Time{n0: 4, n1: 24})
	src := g.UniformProc("B", 2)
	dst := g.UniformProc("C", 2)
	g.Msg(src, dst, 2)
	sys := b.MustSystem()
	base, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	prof := &future.Profile{
		Tmin:       24,
		TNeed:      2,
		BNeedBytes: 2,
		WCET:       []future.Bin{{Size: 2, Prob: 1}},
		MsgBytes:   []future.Bin{{Size: 2, Prob: 1}},
	}
	p, err := core.NewProblem(sys, base, sys.Apps[0], prof, metrics.DefaultWeights(prof))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNeighborReportsUnchangedDraws pins the rule that lets SA skip
// evaluations. Walked as an annealing chain at infinite temperature
// walks (on to every feasible draw), neighbor draws exactly the design
// the move without the rule draws from the same RNG stream, reports it
// unchanged exactly when it equals the current design, and never
// modifies the design it draws from.
func TestNeighborReportsUnchangedDraws(t *testing.T) {
	problems := []struct {
		name  string
		p     *core.Problem
		draws int
	}{
		{"single-bus", testProblem(t, 21, 50, 25), 6000},
		{"multicluster", multiclusterProblem(t, 21), 6000},
		{"short-period", shortPeriodProblem(t), 2000},
	}
	for _, pc := range problems {
		t.Run(pc.name, func(t *testing.T) {
			p := pc.p
			eng := core.NewEngine(p, core.Options{Parallelism: 1})
			ah := runSolve(t, p, core.Options{Strategy: core.AH, Parallelism: 1})
			rng, refRNG := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
			m, h := ah.Mapping, ah.Hints
			unchanged := 0
			for i := 0; i < pc.draws; i++ {
				before, beforeHints := m.Clone(), cloneHints(h)
				nm, nh, changed := core.Neighbor(rng, p, m, h)
				if !reflect.DeepEqual(m, before) || !reflect.DeepEqual(h, beforeHints) {
					t.Fatalf("draw %d modified the current design", i)
				}
				rm, rh := referenceNeighbor(refRNG, p, m, h)
				if !sameDecisions(nm, nh, rm, rh) {
					t.Fatalf("draw %d differs from the move without the rule", i)
				}
				if same := sameDecisions(rm, rh, m, h); changed == same {
					t.Fatalf("draw %d: neighbor reports changed=%v, drawn design equals current: %v", i, changed, same)
				}
				if !changed {
					unchanged++
					continue
				}
				d, err := eng.NewDesign(nm, nh)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := eng.Evaluate(d, sched.Move{}); ok {
					m, h = nm, nh
				}
			}
			if unchanged == 0 || unchanged == pc.draws {
				t.Fatalf("%d of %d draws unchanged: the walk does not exercise both outcomes", unchanged, pc.draws)
			}
			t.Logf("%d of %d draws unchanged", unchanged, pc.draws)
		})
	}
}
