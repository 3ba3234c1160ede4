// Package eval reproduces the experiments of the paper's evaluation
// section. Each runner sweeps randomly generated test cases (existing
// workload of ~400 processes, 10-node TTP architecture) and aggregates
// per-strategy results:
//
//   - RunDeviation — the paper's first and second figures: per size of
//     the current application, the average deviation of the AH / MH
//     objective from the near-optimal SA reference, and the average
//     execution time of each strategy.
//   - RunFutureFit — the paper's third figure: percentage of concrete
//     future applications that can still be mapped after the current
//     application was placed by AH versus MH.
//   - RunAblation — extra (not in the paper): MH with its design choices
//     disabled one at a time.
//   - RunCriterionAblation — extra: MH guided by C1 only or by C2 only,
//     judged by the full objective and by future fit.
//   - RunRelaxed — extra (the CODES-2001 extension): the modification
//     cost of admitting a sampled future application.
//   - RunPortfolio — extra: the strategy-portfolio racer against the
//     strategies it races.
//   - RunMulticluster — extra (beyond the paper): the deviation sweep
//     over multi-cluster platforms, 1–3 TDMA buses chained by gateways.
//
// Every runner is a function of one test case plus a fold of the
// per-case results; sweep generates and runs the cases of a sweep point.
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
	"incdes/internal/model"
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
	// FutureProcs is the size of each sampled future application
	// (default 80, as in the paper).
	FutureProcs int
	// FutureSamples is how many future applications are sampled per test
	// case (default 5).
	FutureSamples int
	// Progress, when non-nil, receives one line per completed test case.
	Progress io.Writer
	// Parallel is how many test cases run concurrently (default 1).
	// Values < 0 use one worker per CPU. Use 1 when the measured
	// runtimes matter (the paper's second figure): concurrent cases
	// contend for cores and inflate wall-clock times.
	Parallel int
	// StrategyParallel is the evaluation parallelism handed to
	// core.Solve within each case (default 1 for the same reason as
	// Parallel; < 0 uses one worker per CPU). Solutions are identical
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

// point is one sweep point: its cases are generated on platform cfg
// with a current application of size processes, from seeds keyed by
// key. name labels the point in errors and progress lines.
type point struct {
	name      string
	cfg       gen.Config
	key, size int
}

// sizePoint is the sweep point of one current-application size on the
// sweep's own platform.
func (o Options) sizePoint(size int) point {
	return point{fmt.Sprintf("size %d", size), o.Config, size, size}
}

// sweepCase is one generated test case of a sweep point.
type sweepCase struct {
	name string // "size 40 case 2"
	seed int64  // the case's seed; future samplers draw from offsets of it
	tc   *gen.TestCase
	p    *core.Problem // tc under the default weights
}

// sweep runs fn on each of the o.Cases test cases of one sweep point,
// o.Parallel at a time; case c is gen.MakeTestCase(pt.cfg,
// o.caseSeed(pt.key, c), o.Existing, pt.size). It returns fn's results
// and the first error, both in case order. fn must derive everything
// from its case, so the results are identical whatever the parallelism.
// A worker stops at its first error, and cancelling ctx stops new cases
// from starting.
func sweep[T any](ctx context.Context, o Options, pt point, fn func(context.Context, *sweepCase) (T, error)) ([]T, error) {
	outs := make([]T, o.Cases)
	errs := make([]error, o.Cases)
	next := make(chan int, o.Cases) // every case index, in order
	for c := range o.Cases {
		next <- c
	}
	close(next)
	var wg sync.WaitGroup
	for range min(o.Parallel, o.Cases) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				sc, err := o.newCase(ctx, pt, c)
				if err == nil {
					outs[c], err = fn(ctx, sc)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// newCase generates case c of the sweep point, or returns ctx's error
// once ctx is cancelled.
func (o Options) newCase(ctx context.Context, pt point, c int) (*sweepCase, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := &sweepCase{name: fmt.Sprintf("%s case %d", pt.name, c), seed: o.caseSeed(pt.key, c)}
	tc, err := gen.MakeTestCase(pt.cfg, sc.seed, o.Existing, pt.size)
	if err != nil {
		return nil, fmt.Errorf("eval: generating %s: %w", sc.name, err)
	}
	p, err := core.NewProblem(tc.Sys, tc.Base, tc.Current, tc.Profile, metrics.DefaultWeights(tc.Profile))
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", sc.name, err)
	}
	sc.tc, sc.p = tc, p
	return sc, nil
}

// solve runs the strategies on p in order, with the sweep's strategy
// parallelism, and returns their solutions; an error names the strategy
// and the case. An interrupted (best-so-far) solution is reported as the
// context's error: a half-finished strategy run would corrupt the
// aggregate figures.
func (o Options) solve(ctx context.Context, sc *sweepCase, p *core.Problem, strats ...core.Strategy) ([]*core.Solution, error) {
	sols := make([]*core.Solution, len(strats))
	for i, strat := range strats {
		sol, err := core.Solve(ctx, p, core.Options{
			Strategy:    strat,
			Parallelism: o.StrategyParallel,
			Observer:    o.Observer,
		})
		if err == nil && sol.Interrupted {
			if err = ctx.Err(); err == nil {
				err = context.Canceled
			}
		}
		if err != nil {
			return nil, fmt.Errorf("eval: %s on %s: %w", strat.Name(), sc.name, err)
		}
		sols[i] = sol
	}
	return sols, nil
}

// futureApps draws the case's o.FutureSamples future applications, of
// o.FutureProcs processes each, from the sweep's generator family at
// seed. Their IDs start far above the case's own, so they never clash.
func (o Options) futureApps(sc *sweepCase, seed int64) ([]*model.Application, error) {
	g := gen.New(o.Config, seed)
	g.StartIDsAt(1 << 20)
	var apps []*model.Application
	for s := 0; s < o.FutureSamples; s++ {
		fut := g.FutureApp(fmt.Sprintf("future%d", s), sc.tc.Profile, o.FutureProcs)
		if err := fut.Validate(sc.tc.Sys.Arch); err != nil {
			return nil, fmt.Errorf("eval: sampled future application invalid: %w", err)
		}
		apps = append(apps, fut)
	}
	return apps, nil
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

// percent is k as a percentage of n, or 0 when n is not positive.
func percent(k, n int) float64 {
	if n <= 0 {
		return 0
	}
	return 100 * float64(k) / float64(n)
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
		sols, err := sweep(ctx, o, o.sizePoint(size), o.deviationCase)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, devRow(size, sols))
	}
	return res, nil
}

// deviationCase solves the case with AH, MH and SA, in that order.
func (o Options) deviationCase(ctx context.Context, sc *sweepCase) ([]*core.Solution, error) {
	sols, err := o.solve(ctx, sc, sc.p, core.AH, core.MHWith(o.MHOptions), core.SAWith(o.SAOptions))
	if err != nil {
		return nil, err
	}
	ah, mh, sa := sols[0], sols[1], sols[2]
	o.logf("%s: AH %.1f MH %.1f SA %.1f (MH %v, SA %v)",
		sc.name, ah.Objective(), mh.Objective(), sa.Objective(),
		mh.Elapsed.Round(time.Millisecond), sa.Elapsed.Round(time.Millisecond))
	return sols, nil
}

// devRow averages the AH, MH and SA solutions of one sweep point's
// cases, summed in case order.
func devRow(size int, cases [][]*core.Solution) DevRow {
	row := DevRow{Size: size, Cases: len(cases)}
	for _, sols := range cases {
		ah, mh, sa := sols[0], sols[1], sols[2]
		// SA starts from the IM solution, so it never ends worse than AH;
		// MH may in principle tie. The reference is the best of the three,
		// so deviations are non-negative.
		ref := min(ah.Objective(), mh.Objective(), sa.Objective())
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
	return row
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
