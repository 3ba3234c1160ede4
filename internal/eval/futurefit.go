package eval

import (
	"context"
	"fmt"

	"incdes/internal/core"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/textplot"
)

// FitRow aggregates one sweep point of the future-fit experiment.
type FitRow struct {
	Size    int
	Cases   int
	Samples int // future applications tried per strategy
	// Percentage of future applications successfully mapped and
	// scheduled on the residual system.
	AHFit, MHFit float64
}

// FutureFitResult is the outcome of RunFutureFit.
type FutureFitResult struct {
	Rows []FitRow
}

// RunFutureFit executes the paper's third experiment: after the current
// application is placed by AH or by MH, sample concrete future
// applications (80 processes by default) and test whether the initial
// mapping algorithm can still place them on what is left of the system.
// Cancelling ctx aborts the sweep with the context's error.
func RunFutureFit(ctx context.Context, o Options) (*FutureFitResult, error) {
	o = o.withDefaults()
	res := &FutureFitResult{}
	for _, size := range o.Sizes {
		cases, err := sweep(ctx, o, o.sizePoint(size), o.futureFitCase)
		if err != nil {
			return nil, err
		}
		var fit [2]int
		for _, ok := range cases {
			fit[0] += ok[0]
			fit[1] += ok[1]
		}
		tried := o.Cases * o.FutureSamples
		res.Rows = append(res.Rows, FitRow{Size: size, Cases: o.Cases, Samples: o.FutureSamples,
			AHFit: percent(fit[0], tried), MHFit: percent(fit[1], tried)})
	}
	return res, nil
}

// futureFitCase places the case's current application with AH and with
// MH, and counts for each how many sampled future applications still
// fit.
func (o Options) futureFitCase(ctx context.Context, sc *sweepCase) ([2]int, error) {
	var ok [2]int
	sols, err := o.solve(ctx, sc, sc.p, core.AH, core.MHWith(o.MHOptions))
	if err != nil {
		return ok, err
	}
	futs, err := o.futureApps(sc, sc.seed+77)
	if err != nil {
		return ok, err
	}
	for _, fut := range futs {
		for i, sol := range sols {
			if fits(sol.State, fut) {
				ok[i]++
			}
		}
	}
	o.logf("%s: future fit AH %d/%d MH %d/%d", sc.name, ok[0], len(futs), ok[1], len(futs))
	return ok, nil
}

// fits reports whether the future application can be mapped and scheduled
// on the residual slack of the solution state (requirement b, tested with
// a concrete family member): the initial mapping algorithm must find a
// valid design without touching anything already scheduled.
func fits(solution *sched.State, fut *model.Application) bool {
	st := solution.Clone()
	_, err := st.MapApp(fut, sched.Hints{})
	return err == nil
}

// FitChart renders the third figure: percentage of future applications
// mapped after AH versus MH placed the current application.
func (r *FutureFitResult) FitChart() string {
	series := []textplot.Series{{Name: "MH"}, {Name: "AH"}}
	for _, row := range r.Rows {
		series[0].Values = append(series[0].Values, row.MHFit)
		series[1].Values = append(series[1].Values, row.AHFit)
	}
	xs := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		xs[i] = fmt.Sprint(row.Size)
	}
	return textplot.Chart(
		"% of future applications mapped (paper Fig: future fit)",
		"current application processes", xs, series, "%")
}
