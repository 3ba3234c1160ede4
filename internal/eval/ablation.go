package eval

import (
	"context"
	"fmt"
	"time"

	"incdes/internal/core"
	"incdes/internal/textplot"
)

// AblationRow aggregates one MH variant over the test cases of one size.
type AblationRow struct {
	Variant string
	Obj     float64 // average objective
	Time    time.Duration
	Evals   float64
}

// AblationResult is the outcome of RunAblation.
type AblationResult struct {
	Size  int
	Cases int
	Rows  []AblationRow
}

// RunAblation quantifies MH's two design choices on one sweep size
// (the first entry of Options.Sizes): message moves, and potential-based
// candidate selection. Each variant runs on the same test cases.
// Cancelling ctx aborts the sweep with the context's error.
func RunAblation(ctx context.Context, o Options) (*AblationResult, error) {
	o = o.withDefaults()
	size := o.Sizes[0]
	variants := []struct {
		name string
		opts core.MHOptions
	}{
		{"MH (full)", o.MHOptions},
		{"MH -msg moves", withMsgMovesDisabled(o.MHOptions)},
		{"MH -potential", withRandomCandidates(o.MHOptions)},
	}
	res := &AblationResult{Size: size, Cases: o.Cases}
	outs := make([][]AblationRow, o.Cases) // [case][variant]
	err := o.forEachCase(ctx, func(c int) error {
		p, err := makeProblem(o, size, c)
		if err != nil {
			return err
		}
		outs[c] = make([]AblationRow, len(variants))
		for i, v := range variants {
			sol, err := o.solve(ctx, p, core.MHWith(v.opts))
			if err != nil {
				return fmt.Errorf("eval: %s on case %d: %w", v.name, c, err)
			}
			outs[c][i] = AblationRow{Obj: sol.Objective(), Time: sol.Elapsed, Evals: float64(sol.Evaluations)}
			o.logf("case %d %s: C=%.1f (%d evals)", c, v.name, sol.Objective(), sol.Evaluations)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Sum in case order, so the float sums are the same whatever the
	// parallelism.
	sums := make([]AblationRow, len(variants))
	for i, v := range variants {
		sums[i].Variant = v.name
		for _, rows := range outs {
			sums[i].Obj += rows[i].Obj
			sums[i].Time += rows[i].Time
			sums[i].Evals += rows[i].Evals
		}
	}
	n := float64(o.Cases)
	for i := range sums {
		sums[i].Obj /= n
		sums[i].Time = time.Duration(float64(sums[i].Time) / n)
		sums[i].Evals /= n
	}
	res.Rows = sums
	return res, nil
}

func withMsgMovesDisabled(o core.MHOptions) core.MHOptions {
	o.DisableMsgMoves = true
	return o
}

func withRandomCandidates(o core.MHOptions) core.MHOptions {
	o.RandomCandidates = true
	return o
}

// Table renders the ablation results.
func (r *AblationResult) Table() string {
	xs := make([]string, len(r.Rows))
	obj := textplot.Series{Name: "avg C"}
	ms := textplot.Series{Name: "avg ms"}
	ev := textplot.Series{Name: "avg evals"}
	for i, row := range r.Rows {
		xs[i] = row.Variant
		obj.Values = append(obj.Values, row.Obj)
		ms.Values = append(ms.Values, row.Time.Seconds()*1000)
		ev.Values = append(ev.Values, row.Evals)
	}
	return fmt.Sprintf("MH ablation at current size %d (%d cases)\n%s",
		r.Size, r.Cases, textplot.Table("variant", xs, []textplot.Series{obj, ms, ev}, "%.1f"))
}
