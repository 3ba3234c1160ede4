package core

import (
	"math/rand"

	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
)

// Test-only exports for the external core_test package, which can build
// generated problems (package gen imports core, so an internal test
// cannot).

// NewEngine exposes the engine constructor so tests can drive
// Engine.Evaluate directly.
func NewEngine(p *Problem, opts Options) *Engine { return newEngine(p, opts) }

// ReferenceEvaluate is the reference evaluation: schedule a clone of the
// base from scratch and score it with metrics.Evaluate.
func ReferenceEvaluate(p *Problem, mapping model.Mapping, hints sched.Hints) (*sched.State, metrics.Report, error) {
	st := p.Base.Clone()
	if err := st.ScheduleApp(p.Current, mapping, hints); err != nil {
		return nil, metrics.Report{}, err
	}
	return st, metrics.Evaluate(st, p.Profile, p.Weights), nil
}

// NeighborMove draws one annealing move over cur and reports whether it
// changes the design.
func NeighborMove(rng *rand.Rand, p *Problem, cur *Design) (sched.Move, bool) {
	var procs []*model.Process
	var msgs []*model.Message
	for _, g := range p.Current.Graphs {
		procs = append(procs, g.Procs...)
		msgs = append(msgs, g.Msgs...)
	}
	return neighbor(rng, p, model.NewIndex(p.Current), procs, msgs, cur)
}

// NewDesign returns the design (mapping, hints) of p's current
// application over a job order of its own.
func NewDesign(p *Problem, mapping model.Mapping, hints sched.Hints) *Design {
	ord, err := p.Base.Order(p.Current)
	if err != nil {
		panic(err)
	}
	return ord.Design(mapping, hints)
}

// Neighbor draws one annealing move from (mapping, hints) and returns
// the design it leads to, reporting whether it changes the design; an
// unchanged draw returns the design as given.
func Neighbor(rng *rand.Rand, p *Problem, mapping model.Mapping, hints sched.Hints) (model.Mapping, sched.Hints, bool) {
	d := NewDesign(p, mapping, hints)
	mv, changed := NeighborMove(rng, p, d)
	if !changed {
		return mapping, hints, false
	}
	d = d.With(mv)
	return d.Mapping(), d.Hints(), true
}

// initial runs the initial mapping IM on a clone of the base, as a
// strategy run's incumbent starts, and returns its mapping and state.
func (p *Problem) initial(hints sched.Hints) (model.Mapping, *sched.State, error) {
	st := p.Base.Clone()
	mapping, err := st.MapApp(p.Current, hints)
	if err != nil {
		return nil, nil, err
	}
	return mapping, st, nil
}
