package main

import (
	"bytes"
	"strings"
	"testing"
)

// toy shrinks every workload so that all four, untraced and traced, run
// in seconds: with -seconds 1, one small problem per solver workload, 50
// resubmits, 10 commits.
var toy = map[string]scale{
	"mh-single-bus":   {inputs: 1, existing: 30, current: 10, rate: 1, setups: 1},
	"sa-multicluster": {inputs: 1, existing: 30, current: 10, rate: 1, setups: 1},
	"svc-resubmit":    {inputs: 2, existing: 30, current: 10, rate: 50, setups: 1},
	"svc-commit":      {inputs: 2, existing: 30, current: 10, rate: 10, setups: 1},
}

// TestSmoke runs each workload at toy size, untraced and traced, and
// requires every op to succeed and every metric BENCHMARK.json declares
// to be printed.
func TestSmoke(t *testing.T) {
	s, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "end_to_end", s.EndToEnd, endToEnd)
	sameNames(t, "per_layer", s.PerLayer, perLayer)
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := measure(w, toy[name], 1, 1, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d ops failed", name, traced, rec.Correct, rec.Failed, rec.Attempted)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json declares %d", name, traced, len(rec.Metrics), len(want))
			}
			var out bytes.Buffer
			printRecord(&out, rec)
			for _, m := range want {
				if !strings.Contains(out.String(), name+" "+m.Name+" ") {
					t.Errorf("%s (traced %v): metric %s not printed", name, traced, m.Name)
				}
			}
		}
	}
}

func sameNames(t *testing.T, key string, declared []specMetric, reported []metricDef) {
	t.Helper()
	if len(declared) != len(reported) {
		t.Fatalf("BENCHMARK.json %s has %d metrics, the benchmark reports %d", key, len(declared), len(reported))
	}
	for i, d := range declared {
		if d.Name != reported[i].name || d.Unit != reported[i].unit {
			t.Errorf("BENCHMARK.json %s[%d] is %s [%s], the benchmark reports %s [%s]",
				key, i, d.Name, d.Unit, reported[i].name, reported[i].unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		parent, chng []float64
		want         string
	}{
		{"faster in every pair", parent, shift(-20), "better"},
		{"slower beyond the bound", parent, shift(20), "worse"},
		{"within noise", parent, shift(1), "unchanged"},
		{"parent spread wider than the bound", noisy, noisy, "unresolved"},
		{"too few pairs", parent[:5], shift(-20)[:5], "unresolved"},
	} {
		if got := verdict(m, tc.parent, tc.chng); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
