// Package textplot renders schedules and experiment series as plain text:
// Gantt charts of processors and the TDMA bus, horizontal bar charts, and
// multi-series line charts. The command-line tools and examples use it to
// show results without any graphics dependency.
package textplot

import (
	"fmt"
	"strings"

	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// Gantt renders the schedule of every node plus the bus over [0, horizon)
// scaled to width columns. Each process occurrence is drawn with a letter
// derived from its application; '.' is idle time.
func Gantt(st *sched.State, width int) string {
	if width <= 0 {
		width = 72
	}
	horizon := st.Horizon()
	scale := func(t tm.Time) int {
		c := int(int64(t) * int64(width) / int64(horizon))
		if c >= width {
			c = width - 1
		}
		return c
	}
	var b strings.Builder
	fmt.Fprintf(&b, "horizon: %v, one column = %v\n", horizon, horizon/tm.Time(width))

	appLetter := func(id model.AppID) byte {
		return byte('A' + int(id)%26)
	}

	nodes := st.System().Arch.NodeIDs()
	for _, n := range nodes {
		row := bytes('.', width)
		for _, e := range st.ProcEntries() {
			if e.Node != n {
				continue
			}
			c0, c1 := scale(e.Start), scale(e.End-1)
			for c := c0; c <= c1; c++ {
				row[c] = appLetter(e.App)
			}
		}
		fmt.Fprintf(&b, "%-4s |%s|\n", fmt.Sprintf("N%d", n), row)
	}

	// Bus row: mark slot occurrences that carry at least one message.
	row := bytes('.', width)
	for _, e := range st.MsgEntries() {
		c0, c1 := scale(e.Start), scale(e.Arrive-1)
		for c := c0; c <= c1; c++ {
			row[c] = appLetter(e.App)
		}
	}
	fmt.Fprintf(&b, "%-4s |%s|\n", "bus", row)
	return b.String()
}

func bytes(fill byte, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = fill
	}
	return s
}

// Series is one line of a chart: a name and a y-value per x position.
type Series struct {
	Name   string
	Values []float64
}

// Chart renders series as horizontal grouped bars, one block per x label.
// It is the text analogue of the paper's result figures.
func Chart(title string, xLabel string, xs []string, series []Series, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)

	max := 0.0
	for _, s := range series {
		for _, v := range s.Values {
			if v > max {
				max = v
			}
		}
	}
	if max <= 0 {
		max = 1
	}
	const barWidth = 46
	nameW := 0
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for i, x := range xs {
		fmt.Fprintf(&b, "%s = %s\n", xLabel, x)
		for _, s := range series {
			v := 0.0
			if i < len(s.Values) {
				v = s.Values[i]
			}
			n := int(v / max * barWidth)
			if v > 0 && n == 0 {
				n = 1
			}
			fmt.Fprintf(&b, "  %-*s %8.2f%s |%s\n", nameW, s.Name, v, unit, strings.Repeat("#", n))
		}
	}
	return b.String()
}

// Table renders series as an aligned table: one row per x, one column per
// series.
func Table(xLabel string, xs []string, series []Series, format string) string {
	if format == "" {
		format = "%.2f"
	}
	var b strings.Builder
	// Header.
	w := len(xLabel)
	for _, x := range xs {
		if len(x) > w {
			w = len(x)
		}
	}
	fmt.Fprintf(&b, "%-*s", w, xLabel)
	colW := make([]int, len(series))
	for i, s := range series {
		colW[i] = len(s.Name)
		if colW[i] < 10 {
			colW[i] = 10
		}
		fmt.Fprintf(&b, "  %*s", colW[i], s.Name)
	}
	b.WriteByte('\n')
	for i, x := range xs {
		fmt.Fprintf(&b, "%-*s", w, x)
		for j, s := range series {
			v := ""
			if i < len(s.Values) {
				v = fmt.Sprintf(format, s.Values[i])
			}
			fmt.Fprintf(&b, "  %*s", colW[j], v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Convergence renders a cost-vs-iteration curve as an ASCII scatter:
// column i shows the cost of the i-th committed design (downsampled to
// width). Feed it obs.CostCurve(events) to visualize how a strategy run
// converged. width and height <= 0 select 64x12.
func Convergence(title string, costs []float64, width, height int) string {
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 12
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(costs) == 0 {
		b.WriteString("(no cost samples)\n")
		return b.String()
	}
	lo, hi := costs[0], costs[0]
	for _, c := range costs {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	span := hi - lo
	if span <= 0 {
		span = 1 // flat curve: draw everything on the top row
	}
	if width > len(costs) {
		width = len(costs)
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = bytes(' ', width)
	}
	for col := 0; col < width; col++ {
		// Downsample: each column shows the last sample of its index range,
		// so the final column always carries the final cost.
		i := (col+1)*len(costs)/width - 1
		row := int((hi - costs[i]) / span * float64(height-1))
		grid[row][col] = '*'
	}
	labelW := len(fmt.Sprintf("%.2f", hi))
	if w := len(fmt.Sprintf("%.2f", lo)); w > labelW {
		labelW = w
	}
	for r, line := range grid {
		label := strings.Repeat(" ", labelW)
		switch r {
		case 0:
			label = fmt.Sprintf("%*.2f", labelW, hi)
		case height - 1:
			label = fmt.Sprintf("%*.2f", labelW, lo)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, line)
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  0%*s\n", strings.Repeat(" ", labelW), width-1, fmt.Sprintf("%d", len(costs)-1))
	return b.String()
}
