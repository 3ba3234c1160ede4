package promtext

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"incdes/internal/obs"
)

func TestMetricName(t *testing.T) {
	cases := []struct {
		instrument string
		kind       obs.InstrumentKind
		want       string
	}{
		{obs.CtrEvaluations, obs.KindCounter, "incdes_core_evaluations_total"},
		{obs.CtrCacheHits, obs.KindCounter, "incdes_core_cache_hits_total"},
		{obs.GagSolveCacheEntries, obs.KindGauge, "incdes_cache_entries"},
		{obs.CtrSchedCalls, obs.KindCounter, "incdes_sched_schedule_calls_total"},
		{obs.HstSolveSeconds, obs.KindHistogram, "incdes_serve_solve_seconds"},
	}
	for _, c := range cases {
		if got := MetricName(DefaultNamespace, c.instrument, c.kind); got != c.want {
			t.Errorf("MetricName(%q) = %q, want %q", c.instrument, got, c.want)
		}
	}
	if got := MetricName("", "a b.c-d", obs.KindGauge); got != "a_b_c_d" {
		t.Errorf("sanitize = %q", got)
	}
}

// writeSnapshot renders one unlabeled snapshot under the default
// namespace.
func writeSnapshot(w io.Writer, s obs.Snapshot) error {
	c := NewCollection(DefaultNamespace)
	c.Add(nil, s)
	return c.Write(w)
}

func TestWriteSnapshot(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter(obs.CtrEvaluations).Add(42)
	r.Counter(obs.CtrCacheHits).Add(10)
	r.Gauge(obs.GagSessLive).Set(4)

	var buf bytes.Buffer
	if err := writeSnapshot(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP incdes_core_evaluations_total design alternatives examined\n",
		"# TYPE incdes_core_evaluations_total counter\n",
		"incdes_core_evaluations_total 42\n",
		"incdes_core_cache_hits_total 10\n",
		"# HELP incdes_session_live design sessions resident in memory\n",
		"# TYPE incdes_session_live gauge\n",
		"incdes_session_live 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: a second render is byte-identical.
	var again bytes.Buffer
	if err := writeSnapshot(&again, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Error("two renders of the same snapshot differ")
	}
}

func TestCollectionLabelsAndOrdering(t *testing.T) {
	mh := obs.NewRegistry()
	mh.Counter(obs.CtrEvaluations).Add(100)
	sa := obs.NewRegistry()
	sa.Counter(obs.CtrEvaluations).Add(200)

	c := NewCollection(DefaultNamespace)
	c.Add(map[string]string{"strategy": "SA"}, sa.Snapshot())
	c.Add(map[string]string{"strategy": "MH"}, mh.Snapshot())
	c.AddGauge("process.uptime_seconds", "seconds since start", nil, 12.25)
	c.AddCounter("solves", "solve requests", map[string]string{"status": "done"}, 3)

	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Label sets sort within the metric, and HELP/TYPE appear exactly once.
	iMH := strings.Index(out, `incdes_core_evaluations_total{strategy="MH"} 100`)
	iSA := strings.Index(out, `incdes_core_evaluations_total{strategy="SA"} 200`)
	if iMH < 0 || iSA < 0 || iMH > iSA {
		t.Errorf("labeled samples missing or misordered:\n%s", out)
	}
	if n := strings.Count(out, "# TYPE incdes_core_evaluations_total counter"); n != 1 {
		t.Errorf("TYPE emitted %d times", n)
	}
	if !strings.Contains(out, "incdes_process_uptime_seconds 12.25\n") {
		t.Errorf("ad-hoc gauge missing:\n%s", out)
	}
	if !strings.Contains(out, `incdes_solves_total{status="done"} 3`+"\n") {
		t.Errorf("ad-hoc counter missing:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	c := NewCollection("")
	c.AddGauge("g", "h", map[string]string{"path": "a\"b\\c\nd"}, 1)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `g{path="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("escaping: got %q, want substring %q", buf.String(), want)
	}
}

// parseExposition is a minimal format checker: every line must be a
// comment or `name[{labels}] value` with a parseable float value.
func parseExposition(t *testing.T, out string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("malformed labels in line %q", line)
			}
			name = name[:brace]
		}
		if !ok || name == "" {
			t.Fatalf("malformed sample line %q", line)
		}
		if strings.ContainsAny(rest, " \t") {
			t.Fatalf("trailing junk in line %q", line)
		}
		names[name] = true
	}
	return names
}

func TestFullCatalogRenders(t *testing.T) {
	r := obs.NewRegistry()
	for _, ins := range obs.Catalog() {
		switch ins.Kind {
		case obs.KindCounter:
			r.Counter(ins.Name).Inc()
		case obs.KindGauge:
			r.Gauge(ins.Name).Set(1)
		case obs.KindHistogram:
			r.Histogram(ins.Name).Observe(0.001)
		}
	}
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	names := parseExposition(t, buf.String())
	for _, ins := range obs.Catalog() {
		want := MetricName(DefaultNamespace, ins.Name, ins.Kind)
		if ins.Kind == obs.KindHistogram {
			// A histogram's base name appears only in HELP/TYPE; the
			// samples carry the _bucket/_sum/_count suffixes.
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if !names[want+sfx] {
					t.Errorf("catalog histogram %q not rendered as %q", ins.Name, want+sfx)
				}
			}
			continue
		}
		if !names[want] {
			t.Errorf("catalog instrument %q not rendered as %q", ins.Name, want)
		}
	}
}
