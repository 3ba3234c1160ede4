package textplot

import (
	"strings"
	"testing"

	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

func demoState(t *testing.T) *sched.State {
	t.Helper()
	b := model.NewBuilder()
	n0 := b.Node("N0")
	n1 := b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2)
	g := b.App("a").Graph("G", 100, 100)
	p1 := g.Proc("P1", map[model.NodeID]tm.Time{n0: 20})
	p2 := g.Proc("P2", map[model.NodeID]tm.Time{n1: 30})
	g.Msg(p1, p2, 4)
	sys, err := b.System()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ScheduleApp(sys.Apps[0], model.Mapping{p1: n0, p2: n1}, sched.Hints{}); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestGantt(t *testing.T) {
	st := demoState(t)
	out := Gantt(st, 50)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 2 nodes + bus.
	if len(lines) != 4 {
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "N0") || !strings.HasPrefix(lines[3], "bus") {
		t.Errorf("unexpected layout:\n%s", out)
	}
	// Node rows must contain busy marks ('A') and idle marks ('.').
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[1], ".") {
		t.Errorf("node row lacks busy/idle marks: %s", lines[1])
	}
	if !strings.Contains(lines[3], "A") {
		t.Errorf("bus row shows no message traffic: %s", lines[3])
	}
}

func TestGanttDefaultWidth(t *testing.T) {
	st := demoState(t)
	if out := Gantt(st, 0); len(out) == 0 {
		t.Error("default width produced empty chart")
	}
}

func TestChart(t *testing.T) {
	out := Chart("title", "size", []string{"40", "80"},
		[]Series{{Name: "AH", Values: []float64{10, 20}}, {Name: "MH", Values: []float64{1, 2}}}, "%")
	for _, want := range []string{"title", "size = 40", "size = 80", "AH", "MH", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// All-zero series must not divide by zero.
	if out := Chart("z", "x", []string{"1"}, []Series{{Name: "s", Values: []float64{0}}}, ""); out == "" {
		t.Error("zero chart empty")
	}
}

func TestTable(t *testing.T) {
	out := Table("size", []string{"40"}, []Series{{Name: "AH", Values: []float64{1.234}}}, "%.1f")
	if !strings.Contains(out, "1.2") || !strings.Contains(out, "AH") {
		t.Errorf("table malformed:\n%s", out)
	}
	// Missing values render as blanks, not panics.
	out = Table("size", []string{"40", "80"}, []Series{{Name: "AH", Values: []float64{1}}}, "")
	if !strings.Contains(out, "80") {
		t.Errorf("row for missing value dropped:\n%s", out)
	}
}
