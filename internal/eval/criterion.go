package eval

import (
	"context"
	"fmt"

	"incdes/internal/core"
	"incdes/internal/metrics"
	"incdes/internal/textplot"
)

// CriterionRow aggregates one objective variant of the criterion
// ablation: MH guided by both criteria, by criterion 1 only, or by
// criterion 2 only, all judged by the same future-fit test.
type CriterionRow struct {
	Variant string
	// Fit is the percentage of sampled future applications that still
	// map onto the resulting design.
	Fit float64
	// FullObjective scores the design under the complete objective
	// (regardless of which objective guided the search).
	FullObjective float64
}

// CriterionResult is the outcome of RunCriterionAblation.
type CriterionResult struct {
	Size  int
	Cases int
	Rows  []CriterionRow
}

// RunCriterionAblation quantifies what each of the paper's two design
// criteria contributes: the mapping heuristic runs with the full
// objective, with only the slack-clustering terms (C1), and with only the
// periodic-slack terms (C2); every variant's design is then judged by the
// full objective and by concrete future applications. The first entry of
// Options.Sizes selects the sweep point. Cancelling ctx aborts the sweep
// with the context's error.
func RunCriterionAblation(ctx context.Context, o Options) (*CriterionResult, error) {
	o = o.withDefaults()
	variants := []struct {
		name    string
		weights func(full metrics.Weights) metrics.Weights
	}{
		{"C1+C2 (paper)", func(w metrics.Weights) metrics.Weights { return w }},
		{"C1 only", func(w metrics.Weights) metrics.Weights {
			w.W2P, w.W2m = 0, 0
			return w
		}},
		{"C2 only", func(w metrics.Weights) metrics.Weights {
			w.W1P, w.W1m = 0, 0
			return w
		}},
	}
	// variantOut is one case's result for one variant.
	type variantOut struct {
		fit int     // future applications that fit
		obj float64 // full objective of the design
	}
	size := o.Sizes[0]
	cases, err := sweep(ctx, o, o.sizePoint(size), func(ctx context.Context, sc *sweepCase) ([]variantOut, error) {
		full := sc.p.Weights
		outs := make([]variantOut, len(variants))
		sols := make([]*core.Solution, len(variants))
		for i, v := range variants {
			p, err := core.NewProblem(sc.tc.Sys, sc.tc.Base, sc.tc.Current, sc.tc.Profile, v.weights(full))
			if err != nil {
				return nil, err
			}
			s, err := o.solve(ctx, sc, p, core.MHWith(o.MHOptions))
			if err != nil {
				return nil, err
			}
			sols[i] = s[0]
			// Judge by the full objective whatever guided the search.
			outs[i].obj = metrics.Evaluate(sols[i].State, sc.tc.Profile, full).Objective
		}
		futs, err := o.futureApps(sc, sc.seed+377)
		if err != nil {
			return nil, err
		}
		for _, fut := range futs {
			for i, sol := range sols {
				if fits(sol.State, fut) {
					outs[i].fit++
				}
			}
		}
		o.logf("%s: criterion ablation done", sc.name)
		return outs, nil
	})
	if err != nil {
		return nil, err
	}

	res := &CriterionResult{Size: size, Cases: o.Cases}
	for i, v := range variants {
		row := CriterionRow{Variant: v.name}
		var fit int
		for _, outs := range cases {
			fit += outs[i].fit
			row.FullObjective += outs[i].obj
		}
		row.Fit = percent(fit, o.Cases*o.FutureSamples)
		row.FullObjective /= float64(o.Cases)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the criterion ablation.
func (r *CriterionResult) Table() string {
	xs := make([]string, len(r.Rows))
	fit := textplot.Series{Name: "future fit %"}
	obj := textplot.Series{Name: "full C"}
	for i, row := range r.Rows {
		xs[i] = row.Variant
		fit.Values = append(fit.Values, row.Fit)
		obj.Values = append(obj.Values, row.FullObjective)
	}
	return fmt.Sprintf("criterion ablation at current size %d (%d cases)\n%s",
		r.Size, r.Cases, textplot.Table("objective", xs, []textplot.Series{fit, obj}, "%.1f"))
}
