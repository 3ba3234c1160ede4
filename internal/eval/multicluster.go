package eval

import (
	"context"
	"fmt"

	"incdes/internal/sched"
	"incdes/internal/textplot"
)

// MCRow aggregates one sweep point of the multi-cluster experiment. It
// embeds the same per-strategy aggregates as DevRow (Size carries the
// cluster count) plus the routing profile of the solved designs.
type MCRow struct {
	DevRow
	// Clusters is the platform's bus count at this point (same value as
	// Size; kept explicit so the table reads unambiguously).
	Clusters int
	// GatewayHops is the average number of gateway-forwarded MEDL
	// entries (hop > 0) in the MH design: how much of the traffic had to
	// cross cluster boundaries.
	GatewayHops float64
}

// MulticlusterResult is the outcome of RunMulticluster.
type MulticlusterResult struct {
	Rows []MCRow
}

// RunMulticluster generalizes the deviation sweep from the paper's
// single-bus platform to multi-cluster architectures: the swept axis is
// the number of TDMA buses (1, 2, 3 by default) at a fixed current-
// application size, with o.Config.Nodes nodes per cluster, one gateway
// per adjacent-bus link and 20% of the processes homed on a neighboring
// cluster. The 1-cluster point runs the exact single-bus generator, so
// the sweep doubles as a regression anchor for the classic family.
func RunMulticluster(ctx context.Context, o Options) (*MulticlusterResult, error) {
	o = o.withDefaults()
	res := &MulticlusterResult{}
	for _, k := range []int{1, 2, 3} {
		cfg := o.Config
		if k > 1 {
			cfg.Clusters = k
			cfg.GatewaysPerLink = 1
			cfg.InterClusterFrac = 0.2
		}
		pt := point{fmt.Sprintf("%d clusters", k), cfg, 1000 + k, o.Sizes[0]}
		cases, err := sweep(ctx, o, pt, o.deviationCase)
		if err != nil {
			return nil, err
		}
		row := MCRow{DevRow: devRow(k, cases), Clusters: k}
		for _, sols := range cases {
			row.GatewayHops += float64(gatewayHopCount(sols[1].State))
		}
		row.GatewayHops /= float64(row.Cases)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// gatewayHopCount counts the gateway-forwarded message entries (hop >
// 0) of a schedule: the share of the traffic that crossed a cluster
// boundary.
func gatewayHopCount(st *sched.State) int {
	hops := 0
	for _, e := range st.MsgEntries() {
		if e.Hop > 0 {
			hops++
		}
	}
	return hops
}

// Table renders the numeric results, one column per cluster count.
func (r *MulticlusterResult) Table() string {
	xs := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		xs[i] = fmt.Sprint(row.Clusters)
	}
	series := []textplot.Series{
		{Name: "AH dev"}, {Name: "MH dev"}, {Name: "SA dev"},
		{Name: "MH ms"}, {Name: "gw hops"},
	}
	for _, row := range r.Rows {
		series[0].Values = append(series[0].Values, row.AHDev)
		series[1].Values = append(series[1].Values, row.MHDev)
		series[2].Values = append(series[2].Values, row.SADev)
		series[3].Values = append(series[3].Values, row.MHTime.Seconds()*1000)
		series[4].Values = append(series[4].Values, row.GatewayHops)
	}
	return textplot.Table("clusters", xs, series, "%.1f")
}
