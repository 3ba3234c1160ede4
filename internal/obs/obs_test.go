package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Error("nil counter loaded non-zero")
	}
	var g *Gauge
	g.Set(7)
	if g.Load() != 0 {
		t.Error("nil gauge loaded non-zero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry returned a live instrument")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var o *Observer
	if o.Registry() != nil {
		t.Error("nil observer returned a registry")
	}
}

// TestNilInstrumentZeroAlloc pins the "free when off" property at the
// instrument level: driving nil instruments performs no allocations.
func TestNilInstrumentZeroAlloc(t *testing.T) {
	var c *Counter
	var g *Gauge
	allocs := testing.AllocsPerRun(200, func() {
		c.Add(1)
		g.Set(3)
	})
	if allocs != 0 {
		t.Errorf("nil instruments allocated %.1f times per op", allocs)
	}
}

func TestRegistryIdentityAndConcurrency(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("repeated lookup returned distinct counters")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits").Inc()
				r.Gauge("depth").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != 8000 {
		t.Errorf("hits = %d, want 8000", got)
	}
	if got := r.Gauge("depth").Load(); got != 999 {
		t.Errorf("depth = %d, want 999 (every writer's last value)", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(CtrEvaluations).Add(42)
	r.Gauge(GagSessLive).Set(128)

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if back.Counters[CtrEvaluations] != 42 {
		t.Errorf("counters = %v", back.Counters)
	}
	if back.Gauges[GagSessLive] != 128 {
		t.Errorf("gauges = %v", back.Gauges)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	var c Collector
	c.Trace(TraceEvent{Kind: "solve.start", Strategy: "MH"})
	c.Trace(TraceEvent{Kind: "move", Iter: 1, Index: 3, Cost: 12.5})
	c.Trace(TraceEvent{Kind: "solve.done", Strategy: "MH", Cost: 12.5, Evaluations: 9})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, c.Events()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("wrote %d lines, want 3", lines)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("read %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
	}
	if cost, ok := FinalCost(events); !ok || cost != 12.5 {
		t.Errorf("FinalCost = %v, %v", cost, ok)
	}
	if curve := CostCurve(events); len(curve) != 1 || curve[0] != 12.5 {
		t.Errorf("CostCurve = %v", curve)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"kind\":\"x\"}\nnot json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

// TestCollectorFollow exercises the collector's concurrency: a follower
// attached mid-stream sees every event exactly once, in order.
func TestCollectorFollow(t *testing.T) {
	c := &Collector{}
	const n = 500
	var got []TraceEvent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		at := 0
		for {
			evs, done, wait := c.Next(at)
			got = append(got, evs...)
			at += len(evs)
			if done && len(evs) == 0 {
				return
			}
			if wait != nil {
				<-wait
			}
		}
	}()
	for i := 0; i < n; i++ {
		c.Trace(TraceEvent{Kind: "candidate", Index: i})
	}
	c.Close()
	wg.Wait()
	if len(got) != n {
		t.Fatalf("follower saw %d events, want %d", len(got), n)
	}
	for i, ev := range got {
		if ev.Seq != int64(i+1) || ev.Index != i {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

// TestCollectorSharesEvents pins the read-only views: Events and Next
// return the collected slice without copying, capped at its length, so
// neither a later Trace nor a reader's append writes into another
// reader's view; and a fresh collector adopts another's events as its
// own, continuing their sequence numbers.
func TestCollectorSharesEvents(t *testing.T) {
	var c Collector
	for i := 0; i < 5; i++ { // leaves spare capacity behind the events
		c.Trace(TraceEvent{Kind: "candidate", Index: i})
	}
	all := c.Events()
	tail, _, _ := c.Next(2)
	if cap(all) != len(all) || cap(tail) != len(tail) {
		t.Fatalf("views have cap %d/%d for len %d/%d", cap(all), cap(tail), len(all), len(tail))
	}
	if &all[2] != &tail[0] {
		t.Fatal("Next copied the collected events")
	}
	mine := append(all, TraceEvent{Kind: "reader"})
	c.Trace(TraceEvent{Kind: "decision"})
	if mine[5].Kind != "reader" {
		t.Fatalf("a later Trace wrote into a reader's view: %+v", mine[5])
	}
	if got := c.Events(); len(got) != 6 || got[5].Kind != "decision" || got[5].Seq != 6 {
		t.Fatalf("a reader's append reached the collector: %+v", got[5])
	}

	var hit Collector
	hit.Adopt(all)
	if got := hit.Events(); len(got) != 5 || &got[0] != &all[0] {
		t.Fatal("Adopt copied the events")
	}
	hit.Trace(TraceEvent{Kind: "solve.done"})
	if got := hit.Events(); got[5].Seq != 6 || c.Events()[5].Kind != "decision" {
		t.Errorf("a Trace after Adopt lost the sequence or wrote into the adopted stream: %+v", got[5])
	}
}

func TestSnapshotSchemaAndMeta(t *testing.T) {
	r := NewRegistry()
	r.Counter(CtrEvaluations).Add(7)
	s := r.Snapshot()
	if s.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("SchemaVersion = %d, want %d", s.SchemaVersion, SnapshotSchemaVersion)
	}
	s.Meta = NewRunMeta(time.Now().Add(-time.Second), 42)
	if s.Meta.GoVersion == "" || s.Meta.GOMAXPROCS < 1 {
		t.Errorf("meta not self-describing: %+v", s.Meta)
	}
	if s.Meta.DurationNS < int64(time.Second) {
		t.Errorf("DurationNS = %d, want >= 1s", s.Meta.DurationNS)
	}
	if s.Meta.Seed != 42 {
		t.Errorf("Seed = %d", s.Meta.Seed)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SnapshotSchemaVersion || back.Meta == nil || back.Meta.Seed != 42 {
		t.Errorf("round trip lost schema/meta: %+v", back)
	}
}

func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stats.json")
	r := NewRegistry()
	r.Counter(CtrEvaluations).Add(3)
	if err := WriteJSONFile(path, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written file is not valid JSON: %v", err)
	}
	if back.Counters[CtrEvaluations] != 3 {
		t.Errorf("counters = %v", back.Counters)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just stats.json", len(entries))
	}

	// A failed write must name the path and leave the old file intact.
	bad := filepath.Join(dir, "no-such-dir", "stats.json")
	err = WriteJSONFile(bad, r.Snapshot())
	if err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error %q does not name the destination path", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Error("successful output disturbed by a later failed write")
	}
}

func TestCatalogCoversDeclaredNames(t *testing.T) {
	cat := Catalog()
	byName := map[string]Instrument{}
	for _, ins := range cat {
		if _, dup := byName[ins.Name]; dup {
			t.Errorf("duplicate catalog entry %q", ins.Name)
		}
		if ins.Help == "" {
			t.Errorf("catalog entry %q has no help", ins.Name)
		}
		byName[ins.Name] = ins
	}
	// The engine, scheduler and bus counters the benchmark's per-layer
	// report reads.
	for _, name := range []string{
		CtrEvaluations, CtrCacheHits, CtrCacheMisses, CtrInfeasible, CtrSolves,
		CtrSchedCalls, CtrSchedJobs, CtrTTPFindSlot, CtrTTPProbes,
	} {
		if ins, ok := byName[name]; !ok || ins.Kind != KindCounter {
			t.Errorf("catalog missing counter %q (got %+v)", name, byName[name])
		}
	}
	for _, name := range []string{GagSolveCacheEntries, GagSessLive, GagClusterWorkers} {
		if ins := byName[name]; ins.Kind != KindGauge {
			t.Errorf("%q kind = %q, want gauge", name, ins.Kind)
		}
	}
	for _, ins := range cat {
		switch ins.Kind {
		case KindCounter, KindGauge, KindHistogram:
		default:
			t.Errorf("catalog entry %q has unknown kind %q", ins.Name, ins.Kind)
		}
	}
}

// TestRegistryMerge pins the aggregate fold every per-job and per-worker
// snapshot goes through: counters add, gauges take the last
// value, histograms merge bucket-wise, and a histogram whose bounds do
// not match the registry's is dropped.
func TestRegistryMerge(t *testing.T) {
	src := NewRegistry()
	src.Counter(CtrEvaluations).Add(5)
	src.Gauge(GagSessLive).Set(4)
	src.Histogram(HstSolveSeconds).Observe(0.003)
	odd := NewHistogram([]float64{1, 2})
	odd.Observe(1.5)
	shifted := NewHistogram(LogBounds(1, 1, len(LatencyBounds()))) // same bucket count
	shifted.Observe(1.5)
	snap := src.Snapshot()
	snap.Histograms["odd"] = odd.Snapshot()
	snap.Histograms["shifted"] = shifted.Snapshot()

	agg := NewRegistry()
	agg.Gauge(GagSessLive).Set(9)
	agg.Histogram("odd").Observe(0.5)
	agg.Merge(snap)
	agg.Merge(snap)

	if got := agg.Counter(CtrEvaluations).Load(); got != 10 {
		t.Errorf("counter = %d, want 10", got)
	}
	if got := agg.Gauge(GagSessLive).Load(); got != 4 {
		t.Errorf("gauge = %d, want 4 (last value)", got)
	}
	if got := agg.Histogram(HstSolveSeconds).Count(); got != 2 {
		t.Errorf("histogram count = %d, want 2", got)
	}
	if got := agg.Histogram("odd").Snapshot(); got.Count != 1 || got.Sum != 0.5 {
		t.Errorf("mismatched-bounds histogram merged: %+v", got)
	}
	if got := agg.Histogram("shifted").Count(); got != 0 {
		t.Errorf("histogram with equal bucket count but other bounds merged %d observations", got)
	}
	var nilReg *Registry
	nilReg.Merge(snap) // no-op, must not panic
}
