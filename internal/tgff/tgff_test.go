package tgff

import (
	"strings"
	"testing"

	"incdes/internal/export"
	"incdes/internal/model"
	"incdes/internal/sched"
)

const sample = `
# A two-graph system on two PEs, TGFF style.
@TASK_GRAPH 0 {
    PERIOD 1000
    TASK src TYPE 0
    TASK mid TYPE 1
    TASK snk TYPE 0
    ARC a0 FROM src TO mid TYPE 0
    ARC a1 FROM mid TO snk TYPE 1
}
@TASK_GRAPH 1 {
    PERIOD 2000
    DEADLINE 1500
    TASK lone TYPE 1
}
@PE 0 {
    0 50
    1 80
}
@PE 1 {
    0 40
    # type 1 does not run here
}
@COMMUN 0 {
    0 4
    1 8
}
`

func parseSample(t *testing.T) *File {
	t.Helper()
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseStructure(t *testing.T) {
	f := parseSample(t)
	if len(f.Graphs) != 2 || len(f.PEs) != 2 {
		t.Fatalf("%d graphs, %d PEs", len(f.Graphs), len(f.PEs))
	}
	g0 := f.Graphs[0]
	if g0.Period != 1000 || g0.Deadline != 0 {
		t.Errorf("graph 0 timing = %v/%v", g0.Period, g0.Deadline)
	}
	if len(g0.Tasks) != 3 || len(g0.Arcs) != 2 {
		t.Errorf("graph 0 has %d tasks, %d arcs", len(g0.Tasks), len(g0.Arcs))
	}
	if f.Graphs[1].Deadline != 1500 {
		t.Errorf("graph 1 deadline = %v", f.Graphs[1].Deadline)
	}
	if f.PEs[1].Exec[0] != 40 {
		t.Errorf("PE1 exec[0] = %v", f.PEs[1].Exec[0])
	}
	if f.Commun[1] != 8 {
		t.Errorf("commun[1] = %d", f.Commun[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"nested block", "@TASK_GRAPH 0 {\n@PE 0 {\n}\n}"},
		{"unterminated", "@TASK_GRAPH 0 {\nPERIOD 10"},
		{"stray close", "}"},
		{"bad task line", "@TASK_GRAPH 0 {\nTASK x\n}"},
		{"bad arc line", "@TASK_GRAPH 0 {\nARC a FROM x TYPE 0\n}"},
		{"statement outside", "PERIOD 10"},
		{"no graphs", "@PE 0 {\n0 10\n}"},
		{"no pes", "@TASK_GRAPH 0 {\nPERIOD 10\nTASK a TYPE 0\n}"},
		{"bad pe row", "@PE 0 {\n0 x\n}\n@TASK_GRAPH 0 {\nPERIOD 5\nTASK a TYPE 0\n}"},
		{"unknown block", "@FOO 0 {\n}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.src)); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

func TestBuildSystem(t *testing.T) {
	f := parseSample(t)
	sys, err := f.Build("tgff-app", BusConfig{SlotBytes: 16, ByteTime: 1, SlotOverhead: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(sys.Arch.Nodes) != 2 {
		t.Fatalf("%d nodes", len(sys.Arch.Nodes))
	}
	app := sys.Apps[0]
	if app.NumProcs() != 4 || app.NumMsgs() != 2 {
		t.Errorf("%d procs, %d msgs", app.NumProcs(), app.NumMsgs())
	}
	// Type 1 tasks run only on PE0.
	var mid *model.Process
	for _, p := range app.Graphs[0].Procs {
		if p.Name == "mid" {
			mid = p
		}
	}
	if mid == nil || len(mid.WCET) != 1 || mid.WCET[0] != 80 {
		t.Errorf("mid WCET table = %+v", mid)
	}
	// Graph 1 keeps its explicit deadline.
	if app.Graphs[1].Deadline != 1500 {
		t.Errorf("graph 1 deadline = %v", app.Graphs[1].Deadline)
	}
}

func TestBuildErrors(t *testing.T) {
	// A task whose type no PE can execute.
	src := strings.Replace(sample, "TASK lone TYPE 1", "TASK lone TYPE 9", 1)
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Build("x", BusConfig{SlotBytes: 16, ByteTime: 1, SlotOverhead: 4}); err == nil {
		t.Error("unexecutable task accepted")
	}

	// An arc whose type has no message size.
	src = strings.Replace(sample, "ARC a1 FROM mid TO snk TYPE 1", "ARC a1 FROM mid TO snk TYPE 9", 1)
	f, err = Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Build("x", BusConfig{SlotBytes: 16, ByteTime: 1, SlotOverhead: 4}); err == nil {
		t.Error("unsized arc accepted")
	}

	// A graph without a period.
	src = strings.Replace(sample, "PERIOD 1000\n", "", 1)
	f, err = Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Build("x", BusConfig{SlotBytes: 16, ByteTime: 1, SlotOverhead: 4}); err == nil {
		t.Error("periodless graph accepted")
	}
}

// TestTGFFSystemSchedules closes the loop: a TGFF-loaded system goes
// through the mapper and validates.
func TestTGFFSystemSchedules(t *testing.T) {
	f := parseSample(t)
	sys, err := f.Build("tgff-app", BusConfig{SlotBytes: 16, ByteTime: 1, SlotOverhead: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.MapApp(sys.Apps[0], sched.Hints{}); err != nil {
		t.Fatalf("MapApp: %v", err)
	}
	d, err := export.Build(st)
	if err != nil {
		t.Fatalf("TGFF system schedule does not export: %v", err)
	}
	if errs := export.Check(d, sys, sys.Apps...); len(errs) != 0 {
		t.Fatalf("TGFF system schedule invalid: %v", errs[0])
	}
}

// FuzzBuildClusters hardens the multi-cluster build path: for any
// parseable TGFF input and any cluster count, Build must either fail
// cleanly or produce a valid multi-bus system whose bus and gateway
// counts match the requested cluster chain.
func FuzzBuildClusters(f *testing.F) {
	f.Add(sample, 2)
	f.Add(sample, 1)
	f.Add("@TASK_GRAPH 0 {\n    PERIOD 10\n    TASK a TYPE 0\n}\n@PE 0 {\n    0 5\n}\n@PE 1 {\n    0 5\n}\n@PE 2 {\n    0 5\n}\n", 3)
	f.Fuzz(func(t *testing.T, src string, clusters int) {
		file, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		k := clusters % 8
		if k < 0 {
			k = -k
		}
		sys, err := file.Build("fuzz", BusConfig{SlotBytes: 16, ByteTime: 1, SlotOverhead: 4, Clusters: k})
		if err != nil {
			return
		}
		if err := sys.Validate(); err != nil {
			t.Fatalf("built system fails validation: %v", err)
		}
		if k > 1 {
			if got := len(sys.Arch.Buses); got != k {
				t.Fatalf("built %d buses, want %d", got, k)
			}
			if got := len(sys.Arch.Gateways()); got != k-1 {
				t.Fatalf("built %d gateways, want %d", got, k-1)
			}
		}
	})
}

func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("@TASK_GRAPH 0 {\n}")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		// Anything parseable must either build or fail cleanly — and
		// whatever builds must be a valid system.
		sys, err := file.Build("fuzz", BusConfig{SlotBytes: 16, ByteTime: 1, SlotOverhead: 4})
		if err != nil {
			return
		}
		if err := sys.Validate(); err != nil {
			t.Fatalf("built system fails validation: %v", err)
		}
	})
}
