package load

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"incdes/internal/obs"
	"incdes/internal/serve"
)

func newHarnessServer(t *testing.T, cacheSize int) *serve.Server {
	t.Helper()
	s := serve.New(serve.Config{
		Parallelism:       1,
		MaxConcurrent:     4,
		QueueDepth:        128,
		RetainJobs:        128,
		SolutionCacheSize: cacheSize,
	})
	t.Cleanup(s.Close)
	return s
}

func TestNamedProfiles(t *testing.T) {
	for _, name := range []string{"smoke", "mixed", "resubmit", "cluster"} {
		p, ok := Named(name)
		if !ok {
			t.Errorf("Named(%q) unknown", name)
			continue
		}
		if p.Name != name || p.Requests <= 0 || p.Concurrency <= 0 || p.Mix.total() <= 0 {
			t.Errorf("Named(%q) = %+v", name, p)
		}
	}
	if _, ok := Named("bogus"); ok {
		t.Error("Named accepted an unknown profile")
	}
}

func TestMixClassCycle(t *testing.T) {
	m := Mix{Resubmit: 2, Distinct: 1, Detach: 1, Commit: 1}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		counts[m.class(i)]++
	}
	want := map[string]int{ClassResubmit: 4, ClassDistinct: 2, ClassDetach: 2, ClassCommit: 2}
	for class, n := range want {
		if counts[class] != n {
			t.Errorf("class %s issued %d of 10, want %d (got %v)", class, counts[class], n, counts)
		}
	}
}

// TestRunProducesFullReport drives the real serving stack with the
// mixed workload and checks every part of the report is populated.
func TestRunProducesFullReport(t *testing.T) {
	s := newHarnessServer(t, 64)
	p := Profile{
		Name: "test", Requests: 24, Concurrency: 4, Seed: 3,
		Mix: Mix{Resubmit: 3, Distinct: 1, Detach: 1, Commit: 1}, DistinctPool: 2,
	}
	rep, err := Run(s.Handler(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion || rep.WallMS <= 0 {
		t.Errorf("report meta = v%d wall %.2fms", rep.SchemaVersion, rep.WallMS)
	}
	if rep.Errors() != 0 {
		t.Fatalf("%d request errors: %+v", rep.Errors(), rep.Classes)
	}
	if !rep.CacheEnabled {
		t.Error("cache headers never observed on a caching server")
	}
	total := 0
	for _, class := range []string{ClassResubmit, ClassDistinct, ClassDetach, ClassCommit} {
		cr, ok := rep.Classes[class]
		if !ok || cr.Requests == 0 {
			t.Errorf("class %s missing from report", class)
			continue
		}
		total += cr.Requests
		if cr.P50MS <= 0 || cr.P99MS < cr.P50MS || cr.MeanMS <= 0 {
			t.Errorf("class %s latency shape: %+v", class, cr)
		}
	}
	if total != p.Requests {
		t.Errorf("classes account for %d requests, want %d", total, p.Requests)
	}
	// 24 requests at mix 3:1:1:1 and a resubmit pool of one problem:
	// every resubmit after the first is a hit or coalesce.
	if rep.Cache.Hit+rep.Cache.Inflight == 0 || rep.Cache.HitRate <= 0 {
		t.Errorf("cache report shows no reuse: %+v", rep.Cache)
	}
}

// TestRunWorkerRows pins the per-worker report: when responses carry
// X-Incdes-Worker attribution (as a cluster coordinator's do), the
// report grows a latency row per worker; without the header the
// Workers map stays empty (checked implicitly by every other test's
// round-trips).
func TestRunWorkerRows(t *testing.T) {
	s := newHarnessServer(t, 0)
	inner := s.Handler()
	var n atomic.Int64
	tagged := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Incdes-Worker", fmt.Sprintf("w%d", n.Add(1)%2+1))
		inner.ServeHTTP(w, r)
	})
	p := Profile{Name: "tag", Requests: 6, Concurrency: 2, Seed: 3, Mix: Mix{Distinct: 1}, DistinctPool: 3}
	rep, err := Run(tagged, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("%d request errors", rep.Errors())
	}
	if len(rep.Workers) != 2 {
		t.Fatalf("worker rows = %v, want w1 and w2", rep.Workers)
	}
	total := 0
	for name, c := range rep.Workers {
		if c.Requests == 0 || c.P99MS < c.P50MS {
			t.Errorf("worker %s row shape: %+v", name, c)
		}
		total += c.Requests
	}
	if total != p.Requests {
		t.Errorf("worker rows account for %d requests, want %d", total, p.Requests)
	}
}

// TestRunCacheOff pins the control arm: with caching disabled no cache
// headers appear and the report says so.
func TestRunCacheOff(t *testing.T) {
	s := newHarnessServer(t, 0)
	p := Profile{Name: "off", Requests: 6, Concurrency: 2, Seed: 3, Mix: Mix{Resubmit: 1}, CacheOff: true}
	rep, err := Run(s.Handler(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("%d request errors", rep.Errors())
	}
	if rep.CacheEnabled || rep.Cache.Hit != 0 || rep.Cache.Inflight != 0 {
		t.Errorf("cache-off run reports cache activity: %+v", rep.Cache)
	}
}

// TestResubmitSpeedup is the harness-level acceptance criterion:
// identical resubmits served from the cache are at least 10x faster at
// the median than solving each one.
func TestResubmitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("load measurement")
	}
	// SA's solve of the fixture dominates the HTTP overhead on any host;
	// MH's is only a few milliseconds.
	p := Profile{Name: "speed", Requests: 24, Concurrency: 4, Seed: 5, Mix: Mix{Resubmit: 1}, Strategy: "sa"}

	off := p
	off.CacheOff = true
	base, err := Run(newHarnessServer(t, 0).Handler(), off)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Run(newHarnessServer(t, 64).Handler(), p)
	if err != nil {
		t.Fatal(err)
	}
	if base.Errors() != 0 || cached.Errors() != 0 {
		t.Fatalf("request errors: base %d, cached %d", base.Errors(), cached.Errors())
	}
	slow := base.Classes[ClassResubmit].P50MS
	fast := cached.Classes[ClassResubmit].P50MS
	if slow < 2 {
		// The fixture solve must dominate the HTTP overhead for the ratio
		// to mean anything; on a machine this fast the margin test is
		// meaningless.
		t.Skipf("uncached resubmit p50 %.2fms too small to compare", slow)
	}
	if fast <= 0 || slow/fast < 10 {
		t.Errorf("resubmit p50 speedup = %.1fx (%.2fms -> %.2fms), want >= 10x", slow/fast, slow, fast)
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "LOAD_test.json")
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Profile:       Profile{Name: "rt", Requests: 1, Concurrency: 1, Mix: Mix{Resubmit: 1}},
		Classes:       map[string]ClassReport{ClassResubmit: {Requests: 1, P50MS: 1}},
	}
	if err := obs.WriteJSONFile(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || got.Profile.Name != "rt" || got.Classes[ClassResubmit].Requests != 1 {
		t.Errorf("round-trip mangled the report: %+v", got)
	}
	// The rename leaves no temporary file behind.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory after WriteJSONFile: %v entries (err %v), want only the report", len(entries), err)
	}
}
