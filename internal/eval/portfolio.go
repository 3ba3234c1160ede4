package eval

// RunPortfolio — extra (not in the paper): the strategy-portfolio racer
// against the individual strategies it races. Per test case the sweep
// solves AH, MH, SA and the portfolio on the same problem; the portfolio
// must finish with the best of the three objectives (its determinism
// contract), so the interesting numbers are which lane wins per size and
// what the race costs in wall-clock next to running only the eventual
// winner.

import (
	"context"
	"fmt"
	"time"

	"incdes/internal/core"
	"incdes/internal/textplot"
)

// PortfolioRow aggregates one sweep point of the portfolio experiment.
type PortfolioRow struct {
	Size  int
	Cases int

	// Average objectives: the portfolio and the best single strategy.
	PortObj, BestObj float64
	// Wins per lane (a case counts for the lane whose solution the
	// portfolio returned).
	AHWins, MHWins, SAWins int
	// Average wall-clock: the race versus the winning lane run alone.
	PortTime, BestTime time.Duration
}

// PortfolioResult is the outcome of RunPortfolio.
type PortfolioResult struct {
	Rows []PortfolioRow
}

// RunPortfolio sweeps the portfolio racer over the usual test cases.
// Cancelling ctx aborts the sweep with the context's error.
func RunPortfolio(ctx context.Context, o Options) (*PortfolioResult, error) {
	o = o.withDefaults()
	lanes := []core.Strategy{core.AH, core.MHWith(o.MHOptions), core.SAWith(o.SAOptions)}
	strats := append([]core.Strategy{core.PortfolioWith(core.PortfolioOptions{Lanes: lanes})}, lanes...)
	// Each case yields the portfolio's solution and the best single
	// lane's.
	portfolioCase := func(ctx context.Context, sc *sweepCase) ([]*core.Solution, error) {
		sols, err := o.solve(ctx, sc, sc.p, strats...)
		if err != nil {
			return nil, err
		}
		port, best := sols[0], sols[1]
		for _, s := range sols[2:] {
			if s.Objective() < best.Objective() {
				best = s
			}
		}
		if port.Objective() > best.Objective() {
			return nil, fmt.Errorf("eval: portfolio objective %.6f worse than best single %.6f on %s",
				port.Objective(), best.Objective(), sc.name)
		}
		o.logf("%s: portfolio %.1f (%s) in %v",
			sc.name, port.Objective(), port.Strategy, port.Elapsed.Round(time.Millisecond))
		return []*core.Solution{port, best}, nil
	}
	res := &PortfolioResult{}
	for _, size := range o.Sizes {
		cases, err := sweep(ctx, o, o.sizePoint(size), portfolioCase)
		if err != nil {
			return nil, err
		}
		row := PortfolioRow{Size: size, Cases: len(cases)}
		for _, c := range cases {
			port, best := c[0], c[1]
			row.PortObj += port.Objective()
			row.BestObj += best.Objective()
			row.PortTime += port.Elapsed
			row.BestTime += best.Elapsed
			switch port.Strategy {
			case "AH":
				row.AHWins++
			case "SA":
				row.SAWins++
			default:
				row.MHWins++
			}
		}
		n := float64(row.Cases)
		row.PortObj /= n
		row.BestObj /= n
		row.PortTime = time.Duration(float64(row.PortTime) / n)
		row.BestTime = time.Duration(float64(row.BestTime) / n)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the numeric portfolio results.
func (r *PortfolioResult) Table() string {
	series := []textplot.Series{
		{Name: "port obj"}, {Name: "best obj"},
		{Name: "AH wins"}, {Name: "MH wins"}, {Name: "SA wins"},
		{Name: "port ms"}, {Name: "best ms"},
	}
	xs := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		xs[i] = fmt.Sprint(row.Size)
		series[0].Values = append(series[0].Values, row.PortObj)
		series[1].Values = append(series[1].Values, row.BestObj)
		series[2].Values = append(series[2].Values, float64(row.AHWins))
		series[3].Values = append(series[3].Values, float64(row.MHWins))
		series[4].Values = append(series[4].Values, float64(row.SAWins))
		series[5].Values = append(series[5].Values, row.PortTime.Seconds()*1000)
		series[6].Values = append(series[6].Values, row.BestTime.Seconds()*1000)
	}
	return textplot.Table("size", xs, series, "%.1f")
}
