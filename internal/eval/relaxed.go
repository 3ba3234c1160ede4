package eval

import (
	"context"
	"fmt"

	"incdes/internal/core"
	"incdes/internal/model"
	"incdes/internal/textplot"
)

// RelaxedRow aggregates one sweep point of the modification-cost
// experiment (the CODES-2001 extension): when the sampled future
// application finally arrives as the next increment, how much
// modification of already-shipped applications does it take to admit it —
// depending on whether the earlier increments were placed by AH or MH?
type RelaxedRow struct {
	Size  int
	Cases int
	// Average modification cost (in processes that had to be remapped)
	// per admitted future application; 0 means it fit the frozen design.
	AHCost, MHCost float64
	// Percentage of future applications inadmissible even with every
	// application modifiable.
	AHFail, MHFail float64
}

// RelaxedResult is the outcome of RunRelaxed.
type RelaxedResult struct {
	Rows []RelaxedRow
}

// admissions records how one case's sampled future applications were
// admitted on top of one design.
type admissions struct {
	cost float64 // summed modification cost of the admitted applications
	fail int     // applications that could not be admitted
}

// RunRelaxed measures the engineering-change cost the two design
// histories incur when the future arrives: each sampled future
// application is admitted with core.SolveRelaxedContext, where modifying
// an existing application costs its size in processes. Cancelling ctx
// aborts the sweep with the context's error.
func RunRelaxed(ctx context.Context, o Options) (*RelaxedResult, error) {
	o = o.withDefaults()
	res := &RelaxedResult{}
	for _, size := range o.Sizes {
		cases, err := sweep(ctx, o, o.sizePoint(size), o.relaxedCase)
		if err != nil {
			return nil, err
		}
		row := RelaxedRow{Size: size, Cases: o.Cases}
		var fail [2]int
		for _, out := range cases {
			row.AHCost += out[0].cost
			row.MHCost += out[1].cost
			fail[0] += out[0].fail
			fail[1] += out[1].fail
		}
		tried := o.Cases * o.FutureSamples
		if ok := tried - fail[0]; ok > 0 {
			row.AHCost /= float64(ok)
		}
		if ok := tried - fail[1]; ok > 0 {
			row.MHCost /= float64(ok)
		}
		row.AHFail, row.MHFail = percent(fail[0], tried), percent(fail[1], tried)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// relaxedCase places the case's current application with AH and with MH,
// and admits every sampled future application on top of each design.
func (o Options) relaxedCase(ctx context.Context, sc *sweepCase) ([2]admissions, error) {
	var out [2]admissions
	sols, err := o.solve(ctx, sc, sc.p, core.AH, core.MHWith(o.MHOptions))
	if err != nil {
		return out, err
	}
	futs, err := o.futureApps(sc, sc.seed+177)
	if err != nil {
		return out, err
	}
	for _, fut := range futs {
		for i, sol := range sols {
			cost, ok := o.admissionCost(ctx, sc, sol, fut)
			if err := ctx.Err(); err != nil {
				return out, err
			}
			if ok {
				out[i].cost += cost
			} else {
				out[i].fail++
			}
		}
	}
	o.logf("%s: relaxed AH cost %.0f fail %d | MH cost %.0f fail %d",
		sc.name, out[0].cost, out[0].fail, out[1].cost, out[1].fail)
	return out, nil
}

// admissionCost admits the future application on top of the given
// solution, allowing modification of every shipped application (cost =
// its process count), and returns the minimum modification cost found.
// ok is false when no subset admits it (or when ctx was cancelled; the
// caller distinguishes the two by checking ctx itself).
func (o Options) admissionCost(ctx context.Context, sc *sweepCase, sol *core.Solution, fut *model.Application) (float64, bool) {
	apps := append(append([]*model.Application{}, sc.tc.Existing...), sc.tc.Current)
	sys := &model.System{Arch: sc.tc.Sys.Arch, Apps: append(append([]*model.Application{}, apps...), fut)}
	existing := make([]core.ExistingApp, len(apps))
	for i, a := range apps {
		existing[i] = core.ExistingApp{App: a, Cost: float64(a.NumProcs())}
	}
	rp := &core.RelaxedProblem{
		Sys:      sys,
		Base:     sol.State,
		Existing: existing,
		Current:  fut,
		Profile:  sc.tc.Profile,
		Weights:  sc.p.Weights,
	}
	rsol, err := core.SolveRelaxedContext(ctx, rp, core.RelaxedOptions{
		MH:          core.MHOptions{MaxIterations: 1},
		MaxSubsets:  16,
		Parallelism: o.StrategyParallel,
		Observer:    o.Observer,
	})
	if err != nil {
		return 0, false
	}
	return rsol.Cost, true
}

// Table renders the modification-cost results.
func (r *RelaxedResult) Table() string {
	xs := make([]string, len(r.Rows))
	series := []textplot.Series{
		{Name: "AH mod cost"}, {Name: "MH mod cost"},
		{Name: "AH fail %"}, {Name: "MH fail %"},
	}
	for i, row := range r.Rows {
		xs[i] = fmt.Sprint(row.Size)
		series[0].Values = append(series[0].Values, row.AHCost)
		series[1].Values = append(series[1].Values, row.MHCost)
		series[2].Values = append(series[2].Values, row.AHFail)
		series[3].Values = append(series[3].Values, row.MHFail)
	}
	return textplot.Table("size", xs, series, "%.1f")
}
