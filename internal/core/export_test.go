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

// Neighbor draws one annealing move from (mapping, hints).
func Neighbor(rng *rand.Rand, p *Problem, mapping model.Mapping, hints sched.Hints) (model.Mapping, sched.Hints) {
	var procs []*model.Process
	var msgs []*model.Message
	for _, g := range p.Current.Graphs {
		procs = append(procs, g.Procs...)
		msgs = append(msgs, g.Msgs...)
	}
	return neighbor(rng, p, model.NewIndex(p.Current), procs, msgs, mapping, hints)
}
