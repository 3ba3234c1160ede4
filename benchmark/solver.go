package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"incdes/internal/core"
	"incdes/internal/export"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/serve"
)

// The solver workloads call core.Solve directly, from one client with
// Parallelism 1, round-robin over problems generated from the seed. They
// use the same layers with opposite balance: on one bus the candidate
// placement (Txn.Apply) dominates an evaluation; on three clusters the
// C1m packing over the slot occurrences of three buses does.
var (
	mhSingleBus = &workload{
		name:    "mh-single-bus",
		clients: 1,
		scale:   scale{inputs: 24, existing: 100, current: 80, rate: 2.4, setups: 21},
		generate: func(seed int64, sc scale) (inputs, error) {
			return generateSolver(quickConfig(), core.MHWith(core.MHOptions{MaxIterations: 10}), seed, sc)
		},
	}
	saMulticluster = &workload{
		name:    "sa-multicluster",
		clients: 1,
		scale:   scale{inputs: 16, existing: 100, current: 20, rate: 1.6, setups: 21},
		generate: func(seed int64, sc scale) (inputs, error) {
			cfg := quickConfig()
			cfg.Clusters = 3
			cfg.GatewaysPerLink = 1
			cfg.InterClusterFrac = 0.2
			return generateSolver(cfg, core.SAWith(core.SAOptions{Seed: 1, Iterations: 400, Restarts: 2}), seed, sc)
		},
	}
)

// quickConfig is the generator configuration of incbench -quick: five
// nodes per cluster and graphs of 5-12 processes.
func quickConfig() gen.Config {
	cfg := gen.Default()
	cfg.Nodes = 5
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 12
	return cfg
}

// inputSeed derives the generator seed of input i from the run seed.
func inputSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

type solverInputs struct {
	strategy core.Strategy
	tcs      []*gen.TestCase
}

type solverRun struct {
	strategy core.Strategy
	cases    []*solverCase
}

type solverCase struct {
	tc       *gen.TestCase
	prob     *core.Problem
	baseline *metrics.Baseline
	sol      *core.Solution // the first solve, replayed by the traced run
	doc      []byte         // its canonical document; every repeat must match it
}

func generateSolver(cfg gen.Config, strategy core.Strategy, seed int64, sc scale) (inputs, error) {
	in := &solverInputs{strategy: strategy}
	for i := 0; i < sc.inputs; i++ {
		tc, err := gen.MakeTestCase(cfg, inputSeed(seed, i), sc.existing, sc.current)
		if err != nil {
			return nil, err
		}
		in.tcs = append(in.tcs, tc)
	}
	return in, nil
}

// setup assembles the problems, validating each frozen schedule,
// current application and profile, and precomputes the metric inputs of
// each frozen schedule (metrics.Baseline), which every solve of the
// problem then shares instead of rebuilding, as design sessions do.
func (in *solverInputs) setup(int) (instance, error) {
	r := &solverRun{strategy: in.strategy}
	for _, tc := range in.tcs {
		p, err := core.NewProblem(tc.Sys, tc.Base, tc.Current, tc.Profile, metrics.DefaultWeights(tc.Profile))
		if err != nil {
			return nil, err
		}
		bl := metrics.NewBaseline(p.Base, p.Profile, p.Weights)
		r.cases = append(r.cases, &solverCase{tc: tc, prob: p, baseline: bl})
	}
	return r, nil
}

func (r *solverRun) inputs() int    { return len(r.cases) }
func (r *solverRun) balanced() bool { return true }
func (r *solverRun) close()         {}

// op solves one problem. A traced solve carries an obs registry and a
// request trace, whose core.solve span joins the span statistics.
func (r *solverRun) op(i int, lt *layers) sample {
	c := r.cases[i%len(r.cases)]
	ctx := context.Background()
	opts := core.Options{Strategy: r.strategy, Parallelism: 1, Baseline: c.baseline}
	var rt *obs.RequestTrace
	if lt != nil {
		opts.Observer = &obs.Observer{Stats: lt.reg}
		rt = obs.NewRequestTrace(fmt.Sprintf("solve-%d", i))
		ctx = obs.ContextWithTrace(ctx, rt)
	}
	t0 := time.Now()
	sol, err := core.Solve(ctx, c.prob, opts)
	s := sample{dur: time.Since(t0)}
	if err == nil {
		err = c.check(sol)
	}
	s.err = err
	if lt != nil && err == nil {
		lt.addSolve(s.dur)
		lt.addSpans(rt.Snapshot())
	}
	return s
}

// check verifies one solution: complete, valid as a deployable design,
// scored exactly as a from-scratch evaluation scores it, and identical
// to the problem's first solve.
func (c *solverCase) check(sol *core.Solution) error {
	if sol.Interrupted {
		return errors.New("solve was interrupted")
	}
	if rep := metrics.Evaluate(sol.State, c.prob.Profile, c.prob.Weights); rep != sol.Report {
		return fmt.Errorf("reported metrics %v differ from a full evaluation %v", sol.Report, rep)
	}
	doc, err := serve.NewSolutionDoc(sol)
	if err != nil {
		return err
	}
	if errs := export.Check(doc.Design, c.tc.Sys, c.tc.Sys.Apps...); len(errs) > 0 {
		return fmt.Errorf("design fails export.Check: %s (%d problems)", errs[0], len(errs))
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if c.doc == nil {
		c.doc, c.sol = b, sol
		return nil
	}
	if !bytes.Equal(b, c.doc) {
		return errors.New("solution differs from the problem's first solve")
	}
	return nil
}

func (r *solverRun) docs() [][]byte {
	out := make([][]byte, len(r.cases))
	for i, c := range r.cases {
		out[i] = c.doc
	}
	return out
}

func (r *solverRun) traceCases() ([]traceCase, error) {
	var out []traceCase
	for _, c := range r.cases {
		if c.sol == nil {
			continue // its solves failed; the run already reports that
		}
		tcase, err := newTraceCase(c.tc, c.prob, c.sol)
		if err != nil {
			return nil, err
		}
		out = append(out, tcase)
	}
	return out, nil
}

// newTraceCase pairs a solved problem with the request bodies of its
// system: whole, as a session base without the current application,
// and the current application alone.
func newTraceCase(tc *gen.TestCase, p *core.Problem, sol *core.Solution) (traceCase, error) {
	full, err := systemJSON(tc.Sys)
	if err != nil {
		return traceCase{}, err
	}
	base, err := systemJSON(&model.System{Arch: tc.Sys.Arch, Apps: tc.Existing})
	if err != nil {
		return traceCase{}, err
	}
	var app bytes.Buffer
	if err := tc.Current.WriteJSON(&app); err != nil {
		return traceCase{}, err
	}
	return traceCase{prob: p, sol: sol, full: full, base: base, app: app.Bytes()}, nil
}

func systemJSON(sys *model.System) ([]byte, error) {
	var b bytes.Buffer
	if err := sys.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
