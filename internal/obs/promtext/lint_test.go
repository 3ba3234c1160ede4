package promtext

import (
	"bytes"
	"strings"
	"testing"

	"incdes/internal/obs"
)

// lint is a convenience wrapper joining the problems for match checks.
func lint(doc string) []string {
	return Lint(strings.NewReader(doc))
}

func assertProblem(t *testing.T, problems []string, want string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Errorf("lint problems %q missing one containing %q", problems, want)
}

func TestLintCleanDocument(t *testing.T) {
	doc := `# HELP reqs requests served
# TYPE reqs counter
reqs{code="200"} 10
reqs{code="500"} 1
# HELP lat latency
# TYPE lat histogram
lat_bucket{le="0.1"} 3
lat_bucket{le="1"} 7
lat_bucket{le="+Inf"} 9
lat_sum 4.2
lat_count 9
`
	if problems := lint(doc); len(problems) != 0 {
		t.Errorf("clean document flagged: %q", problems)
	}
}

func TestLintRealRender(t *testing.T) {
	// A real registry render must lint clean — this closes the loop
	// between the writer and the validator.
	r := obs.NewRegistry()
	for _, ins := range obs.Catalog() {
		switch ins.Kind {
		case obs.KindCounter:
			r.Counter(ins.Name).Inc()
		case obs.KindGauge:
			r.Gauge(ins.Name).Set(1)
		case obs.KindHistogram:
			h := r.Histogram(ins.Name)
			h.Observe(0.0004)
			h.Observe(0.02)
			h.Observe(3)
		}
	}
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if problems := Lint(bytes.NewReader(buf.Bytes())); len(problems) != 0 {
		t.Errorf("rendered catalog fails lint: %q\n%s", problems, buf.String())
	}
}

func TestLintMissingHelpAndType(t *testing.T) {
	problems := lint("orphan 1\n")
	assertProblem(t, problems, "metric orphan: missing HELP")
	assertProblem(t, problems, "metric orphan: missing TYPE")
}

func TestLintDuplicateSeries(t *testing.T) {
	doc := `# HELP m x
# TYPE m gauge
m{a="1",b="2"} 1
m{b="2",a="1"} 2
`
	// Same label set in a different order is still the same series.
	assertProblem(t, lint(doc), "duplicate series")
}

func TestLintDuplicateType(t *testing.T) {
	doc := `# TYPE m gauge
# TYPE m counter
# HELP m x
m 1
`
	assertProblem(t, lint(doc), "duplicate TYPE for m")
}

func TestLintHistogramProblems(t *testing.T) {
	head := "# HELP h x\n# TYPE h histogram\n"
	cases := []struct {
		name, body, want string
	}{
		{"le out of order", "h_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n", `le "0.5" out of order`},
		{"non-monotone", "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "below previous"},
		{"missing inf", "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing +Inf bucket"},
		{"count mismatch", "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "_count 3 != +Inf bucket 2"},
		{"missing sum", "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "missing _sum"},
		{"missing count", "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n", "missing _count"},
		{"no le label", "h_bucket 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", "without le label"},
		{"bad le", "h_bucket{le=\"wat\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", `unparseable le "wat"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			assertProblem(t, lint(head+c.body), c.want)
		})
	}
}

func TestLintHistogramLabelSetsIndependent(t *testing.T) {
	// Two label sets of one histogram accumulate separately: a clean
	// pair must not be cross-contaminated.
	doc := `# HELP h x
# TYPE h histogram
h_bucket{s="a",le="1"} 1
h_bucket{s="a",le="+Inf"} 1
h_sum{s="a"} 0.5
h_count{s="a"} 1
h_bucket{s="b",le="1"} 2
h_bucket{s="b",le="+Inf"} 2
h_sum{s="b"} 1
h_count{s="b"} 2
`
	if problems := lint(doc); len(problems) != 0 {
		t.Errorf("independent label sets flagged: %q", problems)
	}
}

func TestLintCounterNamedCountIsNotHistogram(t *testing.T) {
	// A counter whose name happens to end in _count must not be pulled
	// into histogram validation.
	doc := `# HELP jobs_count finished jobs
# TYPE jobs_count counter
jobs_count 7
`
	if problems := lint(doc); len(problems) != 0 {
		t.Errorf("counter named *_count flagged: %q", problems)
	}
}

func TestLintMalformedLines(t *testing.T) {
	assertProblem(t, lint("m{a=\"1\" 1\n"), "unterminated label set")
	assertProblem(t, lint("# HELP m x\n# TYPE m gauge\nm notanumber\n"), "unparseable value")
}
