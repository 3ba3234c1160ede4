package eval

import (
	"context"
	"fmt"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/metrics"
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

// RunRelaxed measures the engineering-change cost the two design
// histories incur when the future arrives: each sampled future
// application is admitted with core.SolveRelaxedContext, where modifying
// an existing application costs its size in processes. Cancelling ctx
// aborts the sweep with the context's error.
func RunRelaxed(ctx context.Context, o Options) (*RelaxedResult, error) {
	o = o.withDefaults()
	res := &RelaxedResult{}
	for _, size := range o.Sizes {
		row := RelaxedRow{Size: size, Cases: o.Cases}
		type caseOut struct {
			ahCost, mhCost float64
			ahFail, mhFail int
			tried          int
		}
		outs := make([]caseOut, o.Cases)
		size := size
		err := o.forEachCase(ctx, func(c int) error {
			tc, err := gen.MakeTestCase(o.Config, o.caseSeed(size, c), o.Existing, size)
			if err != nil {
				return fmt.Errorf("eval: generating size %d case %d: %w", size, c, err)
			}
			p, err := core.NewProblem(tc.Sys, tc.Base, tc.Current, tc.Profile,
				metrics.DefaultWeights(tc.Profile))
			if err != nil {
				return err
			}
			ah, err := o.solve(ctx, p, core.AH)
			if err != nil {
				return err
			}
			mh, err := o.solve(ctx, p, core.MHWith(o.MHOptions))
			if err != nil {
				return err
			}
			futGen := gen.New(o.Config, o.caseSeed(size, c)+177)
			futGen.StartIDsAt(1 << 20)
			for s := 0; s < o.FutureSamples; s++ {
				fut := futGen.FutureApp(fmt.Sprintf("future%d", s), tc.Profile, o.FutureProcs)
				outs[c].tried++
				for _, variant := range []struct {
					sol  *core.Solution
					cost *float64
					fail *int
				}{
					{ah, &outs[c].ahCost, &outs[c].ahFail},
					{mh, &outs[c].mhCost, &outs[c].mhFail},
				} {
					cost, ok := admissionCost(ctx, o, tc, variant.sol, fut)
					if err := ctx.Err(); err != nil {
						return err
					}
					if !ok {
						*variant.fail++
						continue
					}
					*variant.cost += cost
				}
			}
			o.logf("size %d case %d: relaxed AH cost %.0f fail %d | MH cost %.0f fail %d",
				size, c, outs[c].ahCost, outs[c].ahFail, outs[c].mhCost, outs[c].mhFail)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var tried, ahFail, mhFail int
		for _, out := range outs {
			tried += out.tried
			ahFail += out.ahFail
			mhFail += out.mhFail
			row.AHCost += out.ahCost
			row.MHCost += out.mhCost
		}
		if ok := tried - ahFail; ok > 0 {
			row.AHCost /= float64(ok)
		}
		if ok := tried - mhFail; ok > 0 {
			row.MHCost /= float64(ok)
		}
		if tried > 0 {
			row.AHFail = 100 * float64(ahFail) / float64(tried)
			row.MHFail = 100 * float64(mhFail) / float64(tried)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// admissionCost admits the future application on top of the given
// solution, allowing modification of every shipped application (cost =
// its process count), and returns the minimum modification cost found.
// ok is false when no subset admits it (or when ctx was cancelled; the
// caller distinguishes the two by checking ctx itself).
func admissionCost(ctx context.Context, o Options, tc *gen.TestCase, sol *core.Solution, fut *model.Application) (float64, bool) {
	apps := append(append([]*model.Application{}, tc.Existing...), tc.Current)
	sys := &model.System{Arch: tc.Sys.Arch, Apps: append(append([]*model.Application{}, apps...), fut)}
	existing := make([]core.ExistingApp, len(apps))
	for i, a := range apps {
		existing[i] = core.ExistingApp{App: a, Cost: float64(a.NumProcs())}
	}
	rp := &core.RelaxedProblem{
		Sys:      sys,
		Base:     sol.State,
		Existing: existing,
		Current:  fut,
		Profile:  tc.Profile,
		Weights:  metrics.DefaultWeights(tc.Profile),
	}
	rsol, err := core.SolveRelaxedContext(ctx, rp, core.RelaxedOptions{
		MH:          core.MHOptions{MaxIterations: 1},
		MaxSubsets:  16,
		Parallelism: o.StrategyParallel,
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
