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
	noMsgMoves, randomCandidates := o.MHOptions, o.MHOptions
	noMsgMoves.DisableMsgMoves = true
	randomCandidates.RandomCandidates = true
	names := []string{"MH (full)", "MH -msg moves", "MH -potential"}
	variants := []core.Strategy{core.MHWith(o.MHOptions), core.MHWith(noMsgMoves), core.MHWith(randomCandidates)}
	size := o.Sizes[0]
	cases, err := sweep(ctx, o, o.sizePoint(size), func(ctx context.Context, sc *sweepCase) ([]*core.Solution, error) {
		sols, err := o.solve(ctx, sc, sc.p, variants...)
		if err != nil {
			return nil, err
		}
		for i, sol := range sols {
			o.logf("%s %s: C=%.1f (%d evals)", sc.name, names[i], sol.Objective(), sol.Evaluations)
		}
		return sols, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Size: size, Cases: o.Cases}
	n := float64(o.Cases)
	for i, name := range names {
		row := AblationRow{Variant: name}
		for _, sols := range cases {
			row.Obj += sols[i].Objective()
			row.Time += sols[i].Elapsed
			row.Evals += float64(sols[i].Evaluations)
		}
		row.Obj /= n
		row.Time = time.Duration(float64(row.Time) / n)
		row.Evals /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
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
