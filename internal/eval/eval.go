// Package eval reproduces the experiments of the paper's evaluation
// section. Each runner sweeps the size of the current application over
// randomly generated test cases (existing workload of ~400 processes,
// 10-node TTP architecture) and aggregates per-strategy results:
//
//   - RunDeviation — the paper's first figure: average deviation of the
//     AH / MH objective from the near-optimal SA reference, per size.
//   - The same pass records execution times — the paper's second figure.
//   - RunFutureFit — the paper's third figure: percentage of concrete
//     future applications that can still be mapped after the current
//     application was placed by AH versus MH.
//   - RunAblation — extra (not in the paper): MH with its design choices
//     disabled one at a time.
//   - RunMulticluster — extra (beyond the paper): the deviation sweep
//     over multi-cluster platforms, 1–3 TDMA buses chained by gateways.
package eval

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/obs"
	"incdes/internal/textplot"
)

// Options configure an experiment sweep.
type Options struct {
	Config gen.Config
	// Sizes of the current application (processes). Default: the paper's
	// 40..320 sweep.
	Sizes []int
	// Existing is the size of the frozen workload (default 400).
	Existing int
	// Cases is the number of random test cases per point (default 3; the
	// paper used 50).
	Cases int
	// BaseSeed varies the whole experiment (default 1).
	BaseSeed int64
	// SA / MH tuning; zero values take the strategy defaults.
	SAOptions core.SAOptions
	MHOptions core.MHOptions
	// FutureProcs is the concrete future application size for
	// RunFutureFit (default 80, as in the paper).
	FutureProcs int
	// FutureSamples is how many future applications are tried per test
	// case in RunFutureFit (default 5).
	FutureSamples int
	// Progress, when non-nil, receives one line per completed test case.
	Progress io.Writer
	// Parallel is how many test cases run concurrently (default 1).
	// Values <= 0 use one worker per CPU. Use 1 when the measured
	// runtimes matter (the paper's second figure): concurrent cases
	// contend for cores and inflate wall-clock times.
	Parallel int
	// StrategyParallel is the evaluation parallelism handed to
	// core.Solve within each case (default 1 for the same reason as
	// Parallel; <= 0 uses one worker per CPU). Solutions are identical
	// at any setting — only runtimes change.
	StrategyParallel int
	// Observer, when non-nil, is handed to every embedded core.Solve
	// call, so one registry accumulates engine/scheduler/bus statistics
	// over the whole sweep (incbench -stats-out exports it). Attach a
	// Tracer only for single-case debugging: cases share the sink.
	Observer *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.Config.Nodes == 0 {
		o.Config = gen.Default()
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []int{40, 80, 160, 240, 320}
	}
	if o.Existing == 0 {
		o.Existing = 400
	}
	if o.Cases == 0 {
		o.Cases = 3
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.FutureProcs == 0 {
		o.FutureProcs = 80
	}
	if o.FutureSamples == 0 {
		o.FutureSamples = 5
	}
	if o.Parallel == 0 {
		o.Parallel = 1
	} else if o.Parallel < 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.StrategyParallel == 0 {
		o.StrategyParallel = 1
	} else if o.StrategyParallel < 0 {
		o.StrategyParallel = runtime.GOMAXPROCS(0)
	}
	// The runners predate the Solve redesign and still treat seed 0 as
	// "the default seed"; resolve it here so sweeps stay reproducible.
	if o.SAOptions.Seed == 0 {
		o.SAOptions.Seed = 1
	}
	return o
}

// forEachCase runs fn for every case index, o.Parallel at a time, and
// returns the first error. fn must be independent across cases (each
// case derives everything from its own seed), so the aggregate result is
// identical whatever the parallelism. Cancelling ctx stops new cases
// from starting.
func (o Options) forEachCase(ctx context.Context, fn func(c int) error) error {
	if o.Parallel <= 1 {
		for c := 0; c < o.Cases; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(c); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, o.Parallel)
	errs := make([]error, o.Cases)
	var wg sync.WaitGroup
	for c := 0; c < o.Cases; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[c] = err
				return
			}
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// solve runs one strategy through core.Solve with the sweep's strategy
// parallelism. An interrupted (best-so-far) solution is reported as the
// context's error: a half-finished strategy run would corrupt the
// aggregate figures.
func (o Options) solve(ctx context.Context, p *core.Problem, strat core.Strategy) (*core.Solution, error) {
	sol, err := core.Solve(ctx, p, core.Options{
		Strategy:    strat,
		Parallelism: o.StrategyParallel,
		Observer:    o.Observer,
	})
	if err != nil {
		return nil, err
	}
	if sol.Interrupted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	return sol, nil
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// caseSeed spreads seeds so that every (size, case) pair generates an
// independent workload.
func (o Options) caseSeed(size, c int) int64 {
	return o.BaseSeed + int64(size)*101 + int64(c)*1_000_000_007
}

// DevRow aggregates one sweep point of the deviation/runtime experiment.
type DevRow struct {
	Size  int
	Cases int

	// Average objective value per strategy.
	AHObj, MHObj, SAObj float64
	// Average deviation from the SA reference in objective points. With
	// the normalized default weights the objective is a percentage-scaled
	// quantity, so this reads as the paper's "avg % deviation from
	// near-optimal" (computed as a difference, which stays defined when
	// the SA reference reaches 0).
	AHDev, MHDev, SADev float64
	// Average strategy runtimes (the paper's second figure).
	AHTime, MHTime, SATime time.Duration
	// Average design alternatives examined (hardware-independent cost).
	AHEvals, MHEvals, SAEvals float64
}

// add accumulates one case's three solutions into the row's sums.
func (row *DevRow) add(ah, mh, sa *core.Solution) {
	// SA starts from the IM solution, so it never ends worse than AH; MH
	// may in principle tie. The reference is the best of the three, so
	// deviations are non-negative.
	ref := min3(ah.Objective(), mh.Objective(), sa.Objective())
	row.Cases++
	row.AHObj += ah.Objective()
	row.MHObj += mh.Objective()
	row.SAObj += sa.Objective()
	row.AHDev += ah.Objective() - ref
	row.MHDev += mh.Objective() - ref
	row.SADev += sa.Objective() - ref
	row.AHTime += ah.Elapsed
	row.MHTime += mh.Elapsed
	row.SATime += sa.Elapsed
	row.AHEvals += float64(ah.Evaluations)
	row.MHEvals += float64(mh.Evaluations)
	row.SAEvals += float64(sa.Evaluations)
}

// average turns the accumulated sums into per-case averages.
func (row *DevRow) average() {
	n := float64(row.Cases)
	row.AHObj /= n
	row.MHObj /= n
	row.SAObj /= n
	row.AHDev /= n
	row.MHDev /= n
	row.SADev /= n
	row.AHTime = time.Duration(float64(row.AHTime) / n)
	row.MHTime = time.Duration(float64(row.MHTime) / n)
	row.SATime = time.Duration(float64(row.SATime) / n)
	row.AHEvals /= n
	row.MHEvals /= n
	row.SAEvals /= n
}

// DeviationResult is the outcome of RunDeviation.
type DeviationResult struct {
	Rows []DevRow
}

// RunDeviation executes the paper's first and second experiments: for
// every current-application size it generates test cases, runs AH, MH and
// SA on each, and aggregates objective deviations and runtimes.
// Cancelling ctx aborts the sweep with the context's error.
func RunDeviation(ctx context.Context, o Options) (*DeviationResult, error) {
	o = o.withDefaults()
	res := &DeviationResult{}
	for _, size := range o.Sizes {
		row := DevRow{Size: size}
		type caseOut struct{ ah, mh, sa *core.Solution }
		outs := make([]caseOut, o.Cases)
		size := size
		err := o.forEachCase(ctx, func(c int) error {
			p, err := makeProblem(o, size, c)
			if err != nil {
				return err
			}
			ah, err := o.solve(ctx, p, core.AH)
			if err != nil {
				return fmt.Errorf("eval: AH on size %d case %d: %w", size, c, err)
			}
			mh, err := o.solve(ctx, p, core.MHWith(o.MHOptions))
			if err != nil {
				return fmt.Errorf("eval: MH on size %d case %d: %w", size, c, err)
			}
			sa, err := o.solve(ctx, p, core.SAWith(o.SAOptions))
			if err != nil {
				return fmt.Errorf("eval: SA on size %d case %d: %w", size, c, err)
			}
			outs[c] = caseOut{ah: ah, mh: mh, sa: sa}
			o.logf("size %d case %d: AH %.1f MH %.1f SA %.1f (MH %v, SA %v)",
				size, c, ah.Objective(), mh.Objective(), sa.Objective(),
				mh.Elapsed.Round(time.Millisecond), sa.Elapsed.Round(time.Millisecond))
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, out := range outs {
			row.add(out.ah, out.mh, out.sa)
		}
		row.average()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func makeProblem(o Options, size, c int) (*core.Problem, error) {
	tc, err := gen.MakeTestCase(o.Config, o.caseSeed(size, c), o.Existing, size)
	if err != nil {
		return nil, fmt.Errorf("eval: generating size %d case %d: %w", size, c, err)
	}
	return core.NewProblem(tc.Sys, tc.Base, tc.Current, tc.Profile,
		metrics.DefaultWeights(tc.Profile))
}

// xLabels renders the sweep sizes for the plot routines.
func xLabels(rows []DevRow) []string {
	xs := make([]string, len(rows))
	for i, r := range rows {
		xs[i] = fmt.Sprint(r.Size)
	}
	return xs
}

// DeviationChart renders the first figure: average deviation from the
// near-optimal reference per strategy and size.
func (r *DeviationResult) DeviationChart() string {
	series := []textplot.Series{{Name: "AH"}, {Name: "MH"}, {Name: "SA"}}
	for _, row := range r.Rows {
		series[0].Values = append(series[0].Values, row.AHDev)
		series[1].Values = append(series[1].Values, row.MHDev)
		series[2].Values = append(series[2].Values, row.SADev)
	}
	return textplot.Chart(
		"Avg deviation from near-optimal [objective points] (paper Fig: deviation)",
		"current application processes", xLabels(r.Rows), series, "")
}

// RuntimeChart renders the second figure: average execution time per
// strategy and size.
func (r *DeviationResult) RuntimeChart() string {
	series := []textplot.Series{{Name: "AH"}, {Name: "MH"}, {Name: "SA"}}
	for _, row := range r.Rows {
		series[0].Values = append(series[0].Values, row.AHTime.Seconds()*1000)
		series[1].Values = append(series[1].Values, row.MHTime.Seconds()*1000)
		series[2].Values = append(series[2].Values, row.SATime.Seconds()*1000)
	}
	return textplot.Chart(
		"Avg execution time [ms] (paper Fig: runtime)",
		"current application processes", xLabels(r.Rows), series, "ms")
}

// Table renders the full numeric results.
func (r *DeviationResult) Table() string {
	series := []textplot.Series{
		{Name: "AH dev"}, {Name: "MH dev"}, {Name: "SA dev"},
		{Name: "AH ms"}, {Name: "MH ms"}, {Name: "SA ms"},
	}
	for _, row := range r.Rows {
		series[0].Values = append(series[0].Values, row.AHDev)
		series[1].Values = append(series[1].Values, row.MHDev)
		series[2].Values = append(series[2].Values, row.SADev)
		series[3].Values = append(series[3].Values, row.AHTime.Seconds()*1000)
		series[4].Values = append(series[4].Values, row.MHTime.Seconds()*1000)
		series[5].Values = append(series[5].Values, row.SATime.Seconds()*1000)
	}
	return textplot.Table("size", xLabels(r.Rows), series, "%.1f")
}
