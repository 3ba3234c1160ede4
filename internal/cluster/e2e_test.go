package cluster

// End-to-end cluster tests over real localhost HTTP: coordinator and
// workers are separate http servers, so every unit request crosses a
// TCP connection exactly as in a multi-process deployment. The tests
// pin the acceptance contract: a 1-worker and a 3-worker cluster — and
// a cluster that loses a worker mid-solve — return solution documents
// byte-identical to a local, dispatcher-less incmapd.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/obs/promtext"
	"incdes/internal/serve"
	"incdes/internal/tm"
)

func fixtureJSON(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("../../testdata/system.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newWorker starts one worker daemon: a stock serve server with a
// solution cache, listening on localhost TCP.
func newWorker(t testing.TB) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 32})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// newCluster starts a coordinator daemon over the given worker URLs.
func newCluster(t testing.TB, opts Options) *httptest.Server {
	t.Helper()
	c := NewCoordinator(opts)
	s := serve.New(serve.Config{
		Parallelism:   1,
		MaxConcurrent: 4,
		Dispatcher:    c,
		MetricsExtra:  c.MetricsExtra,
	})
	ts := httptest.NewServer(c.Handler(s.Handler()))
	t.Cleanup(func() { ts.Close(); s.Close(); c.Close() })
	return ts
}

// newLocal starts a dispatcher-less server — the byte-identity baseline.
func newLocal(t testing.TB) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{Parallelism: 1, MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// jobResponse is the solve response with the solution kept raw for
// byte comparison.
type jobResponse struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Worker   string          `json:"worker"`
	Solution json.RawMessage `json:"solution"`
	Stats    *obs.Snapshot   `json:"stats"`
}

func postSolve(t testing.TB, base, query string, system []byte, hdr map[string]string) (jobResponse, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/solve?"+query, bytes.NewReader(system))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc jobResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("POST /v1/solve?%s: not JSON: %v\n%s", query, err, body)
	}
	return doc, resp
}

func mustDone(t testing.TB, doc jobResponse, resp *http.Response, where string) {
	t.Helper()
	if resp.StatusCode != http.StatusOK || doc.Status != serve.StatusDone {
		t.Fatalf("%s: status %d / %q (error %q)", where, resp.StatusCode, doc.Status, doc.Error)
	}
}

// TestE2EByteIdenticalAcrossClusterSizes is the tentpole acceptance
// test: for every strategy shape the coordinator shards, 1-worker and
// 3-worker clusters return the byte-identical solution a local server
// produces.
func TestE2EByteIdenticalAcrossClusterSizes(t *testing.T) {
	system := fixtureJSON(t)
	local := newLocal(t)
	c1 := newCluster(t, Options{Workers: []string{newWorker(t).URL}})
	c3 := newCluster(t, Options{Workers: []string{newWorker(t).URL, newWorker(t).URL, newWorker(t).URL}})

	queries := []string{
		"strategy=mh",
		"strategy=ah",
		"strategy=sa&sa-restarts=3&sa-iters=200&seed=5",
		"strategy=portfolio&sa-restarts=2&sa-iters=150&seed=9",
	}
	for _, q := range queries {
		want, wresp := postSolve(t, local.URL, q, system, nil)
		mustDone(t, want, wresp, "local "+q)
		for name, ts := range map[string]*httptest.Server{"1-worker": c1, "3-worker": c3} {
			got, resp := postSolve(t, ts.URL, q, system, nil)
			mustDone(t, got, resp, name+" "+q)
			if !bytes.Equal(got.Solution, want.Solution) {
				t.Errorf("%s %s: solution differs from local\ncluster: %.200s\nlocal:   %.200s", name, q, got.Solution, want.Solution)
			}
			if resp.Header.Get("X-Incdes-Worker") == "" {
				t.Errorf("%s %s: X-Incdes-Worker header missing", name, q)
			}
			if got.Worker == "" {
				t.Errorf("%s %s: job document has no worker field", name, q)
			}
			if got.Stats == nil || got.Stats.Counters[obs.CtrClusterUnits] == 0 {
				t.Errorf("%s %s: cluster.units counter missing from request stats", name, q)
			}
		}
	}
}

// TestE2EDeadlineReturnsBestDesign pins that a dispatched solve reaching
// its deadline answers as a local one does: 200, interrupted, with the
// best design found so far, for one SA chain and for a chain per worker.
func TestE2EDeadlineReturnsBestDesign(t *testing.T) {
	system := fixtureJSON(t)
	const budget = "&sa-iters=4000000&seed=3&timeout=300ms&cache=off"
	c1 := newCluster(t, Options{Workers: []string{newWorker(t).URL}})
	c3 := newCluster(t, Options{Workers: []string{newWorker(t).URL, newWorker(t).URL, newWorker(t).URL}})
	for _, tc := range []struct {
		name, base, query string
	}{
		{"1-worker", c1.URL, "strategy=sa" + budget},
		{"3-worker", c3.URL, "strategy=sa&sa-restarts=3" + budget},
	} {
		got, resp := postSolve(t, tc.base, tc.query, system, nil)
		if resp.StatusCode != http.StatusOK || got.Status != serve.StatusInterrupted {
			t.Errorf("%s %s: status %d / %q (error %q), want 200 / %q", tc.name, tc.query, resp.StatusCode, got.Status, got.Error, serve.StatusInterrupted)
		}
		if len(got.Solution) == 0 || string(got.Solution) == "null" {
			t.Errorf("%s %s: no solution", tc.name, tc.query)
		}
	}
}

// flakyWorker answers a unit's POST /v1/solve with a 200 header and then
// kills the connection — a worker dying mid-chain, deterministically.
func flakyWorker(t testing.TB) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestE2EStaticStockWorker lists a stock daemon, one that never
// registered itself, as the coordinator's only worker: it serves the
// units of an SA solve, and the answer is the local bytes.
func TestE2EStaticStockWorker(t *testing.T) {
	system := fixtureJSON(t)
	const q = "strategy=sa&sa-restarts=2&sa-iters=200&seed=5"
	want, wresp := postSolve(t, newLocal(t).URL, q, system, nil)
	mustDone(t, want, wresp, "local")

	cl := newCluster(t, Options{Workers: []string{newLocal(t).URL}})
	got, resp := postSolve(t, cl.URL, q, system, nil)
	mustDone(t, got, resp, "cluster over a stock worker")
	if !bytes.Equal(got.Solution, want.Solution) {
		t.Errorf("solution differs from local\ncluster: %.200s\nlocal:   %.200s", got.Solution, want.Solution)
	}
	if got.Worker != "w1" {
		t.Errorf("worker = %q, want w1", got.Worker)
	}
}

// TestE2ECoordinatorForwardsPostedBytes: every unit request carries the
// bytes the client posted, not a re-serialization of the decoded system.
// The worker records each POST /v1/solve body before serving it.
func TestE2ECoordinatorForwardsPostedBytes(t *testing.T) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, fixtureJSON(t)); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 32})
	var mu sync.Mutex
	var bodies [][]byte
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/solve" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("reading a unit body: %v", err)
			}
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { worker.Close(); s.Close() })

	cl := newCluster(t, Options{Workers: []string{worker.URL}})
	got, resp := postSolve(t, cl.URL, "strategy=sa&sa-restarts=2&sa-iters=200&cache=off", compact.Bytes(), nil)
	mustDone(t, got, resp, "cluster")
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 {
		t.Fatalf("the worker got %d unit requests, want one per SA chain (2)", len(bodies))
	}
	for i, b := range bodies {
		if !bytes.Equal(b, compact.Bytes()) {
			t.Errorf("unit request %d carries %d bytes that differ from the client's %d:\n%.200s", i, len(b), compact.Len(), b)
		}
	}
}

// hungWorker is a node that freezes on its first unit: it answers
// /readyz as a healthy worker until a POST /v1/solve arrives, and every
// other request, and every probe after that, hangs until the client
// gives up. The body is read first: the server notices a client that
// gives up only once the request body is consumed.
func hungWorker(t testing.TB) *httptest.Server {
	t.Helper()
	var frozen atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && !frozen.Load() {
			json.NewEncoder(w).Encode(serve.ReadyDoc{Status: "ready"})
			return
		}
		if r.URL.Path == "/v1/solve" {
			frozen.Store(true)
		}
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestE2EStealFromEjectedWorker hangs the worker holding the only unit:
// once the prober ejects it, the unit is duplicated on the healthy
// worker, whose answer wins.
func TestE2EStealFromEjectedWorker(t *testing.T) {
	system := fixtureJSON(t)
	// The timeout fails the solve instead of hanging the test when no
	// duplicate is started.
	const q = "strategy=sa&sa-iters=200&seed=11&timeout=30s"
	want, wresp := postSolve(t, newLocal(t).URL, q, system, nil)
	mustDone(t, want, wresp, "local")

	// Both workers report an empty queue, so the unit goes to w1 first.
	cl := newCluster(t, Options{
		Workers:       []string{hungWorker(t).URL, newWorker(t).URL},
		ProbeInterval: 20 * time.Millisecond,
	})
	got, resp := postSolve(t, cl.URL, q, system, nil)
	mustDone(t, got, resp, "cluster with a hung worker")
	if !bytes.Equal(got.Solution, want.Solution) {
		t.Errorf("solution after the steal differs from local\ncluster: %.200s\nlocal:   %.200s", got.Solution, want.Solution)
	}
	if got.Stats == nil {
		t.Fatal("no request stats")
	}
	if n := got.Stats.Counters[obs.CtrClusterSteals]; n != 1 {
		t.Errorf("cluster.steals = %d, want 1", n)
	}
	if got.Worker != "w2" {
		t.Errorf("worker = %q, want w2 (the healthy one)", got.Worker)
	}
}

// TestE2EWorkerLossReassigns kills a worker mid-chain and checks the
// unit is reassigned, the reassignment is counted, and the final
// document still matches the local solve byte for byte.
func TestE2EWorkerLossReassigns(t *testing.T) {
	system := fixtureJSON(t)
	const q = "strategy=sa&sa-restarts=2&sa-iters=200&seed=11"

	local := newLocal(t)
	want, wresp := postSolve(t, local.URL, q, system, nil)
	mustDone(t, want, wresp, "local")

	// w1 dies mid-chain; w2 is real. A long probe interval keeps the
	// prober from ejecting w1 before the dispatcher ever tries it.
	flaky := flakyWorker(t)
	good := newWorker(t)
	cl := newCluster(t, Options{
		Workers:       []string{flaky.URL, good.URL},
		ProbeInterval: time.Hour,
	})

	got, resp := postSolve(t, cl.URL, q, system, nil)
	mustDone(t, got, resp, "cluster with dying worker")
	if !bytes.Equal(got.Solution, want.Solution) {
		t.Errorf("solution after worker loss differs from local\ncluster: %.200s\nlocal:   %.200s", got.Solution, want.Solution)
	}
	if got.Stats == nil {
		t.Fatal("no request stats")
	}
	if n := got.Stats.Counters[obs.CtrClusterReassigned]; n < 1 {
		t.Errorf("cluster.reassigned = %d, want >= 1", n)
	}
	if n := got.Stats.Counters[obs.CtrClusterUnitErrors]; n < 1 {
		t.Errorf("cluster.unit_errors = %d, want >= 1", n)
	}
	if got.Worker != "w2" {
		t.Errorf("worker = %q, want w2 (the survivor)", got.Worker)
	}
}

// TestE2EDetachedJobDispatched covers the whole-job sharding shape:
// a detached solve runs on a worker and its status document names it.
func TestE2EDetachedJobDispatched(t *testing.T) {
	system := fixtureJSON(t)
	local := newLocal(t)
	want, wresp := postSolve(t, local.URL, "strategy=mh", system, nil)
	mustDone(t, want, wresp, "local")

	cl := newCluster(t, Options{Workers: []string{newWorker(t).URL}})
	queued, resp := postSolve(t, cl.URL, "strategy=mh&detach=1", system, nil)
	if resp.StatusCode != http.StatusAccepted || queued.ID == "" {
		t.Fatalf("detach: status %d, doc %+v", resp.StatusCode, queued)
	}
	deadline := time.Now().Add(30 * time.Second)
	var got jobResponse
	for {
		r, err := http.Get(cl.URL + "/v1/solve/" + queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("poll: %v\n%s", err, body)
		}
		if got.Status == serve.StatusDone || got.Status == serve.StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("detached job stuck in %q", got.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got.Status != serve.StatusDone {
		t.Fatalf("detached job = %q (error %q)", got.Status, got.Error)
	}
	if !bytes.Equal(got.Solution, want.Solution) {
		t.Errorf("detached cluster solution differs from local")
	}
	if got.Worker != "w1" {
		t.Errorf("worker = %q, want w1", got.Worker)
	}
}

// sessionFixture builds a small base system plus one follow-on
// application (same period, so future-load profiles agree).
func sessionFixture(t testing.TB) (sysJSON, appJSON []byte) {
	t.Helper()
	b := model.NewBuilder()
	b.Node("N0")
	b.Node("N1")
	b.Node("N2")
	b.UniformBus(8, 1, 2)
	mk := func(name string, procs int) {
		g := b.App(name).Graph(name+"-g", tm.Time(60), tm.Time(60))
		var prev model.ProcID
		for i := 0; i < procs; i++ {
			p := g.UniformProc(fmt.Sprintf("%s-p%d", name, i), 3)
			if i > 0 {
				g.Msg(prev, p, 4)
			}
			prev = p
		}
	}
	mk("base", 3)
	mk("app1", 2)
	full := b.MustSystem()
	var sys, app bytes.Buffer
	if err := (&model.System{Arch: full.Arch, Apps: full.Apps[:1]}).WriteJSON(&sys); err != nil {
		t.Fatal(err)
	}
	if err := full.Apps[1].WriteJSON(&app); err != nil {
		t.Fatal(err)
	}
	return sys.Bytes(), app.Bytes()
}

// TestE2ESessionCommitIdenticalAcrossClusterSizes pins that the session
// commit path yields identical documents regardless of cluster size
// (commits solve on the coordinator itself; the cluster must not
// perturb them).
func TestE2ESessionCommitIdenticalAcrossClusterSizes(t *testing.T) {
	sysJSON, appJSON := sessionFixture(t)
	servers := map[string]*httptest.Server{
		"local":    newLocal(t),
		"1-worker": newCluster(t, Options{Workers: []string{newWorker(t).URL}}),
		"3-worker": newCluster(t, Options{Workers: []string{newWorker(t).URL, newWorker(t).URL, newWorker(t).URL}}),
	}
	docs := map[string]json.RawMessage{}
	for name, ts := range servers {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(sysJSON))
		if err != nil {
			t.Fatal(err)
		}
		var sess struct {
			ID string `json:"id"`
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &sess); err != nil || sess.ID == "" {
			t.Fatalf("%s: session open: %v\n%s", name, err, body)
		}
		resp, err = http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/commits?strategy=mh", "application/json", bytes.NewReader(appJSON))
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		var doc jobResponse
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: commit: %v\n%s", name, err, body)
		}
		if resp.StatusCode != http.StatusOK || doc.Status != serve.StatusDone {
			t.Fatalf("%s: commit = %d / %q (%q)", name, resp.StatusCode, doc.Status, doc.Error)
		}
		docs[name] = doc.Solution
	}
	for name, sol := range docs {
		if !bytes.Equal(sol, docs["local"]) {
			t.Errorf("%s commit solution differs from local", name)
		}
	}
}

// TestE2EMergedMetrics checks the coordinator's /v1/metrics merges the
// fleet: per-worker rows, a coordinator row, an all-workers aggregate —
// and the whole exposition stays lint-clean.
func TestE2EMergedMetrics(t *testing.T) {
	system := fixtureJSON(t)
	cl := newCluster(t, Options{Workers: []string{newWorker(t).URL, newWorker(t).URL}})
	doc, resp := postSolve(t, cl.URL, "strategy=sa&sa-restarts=2&sa-iters=100&seed=3", system, nil)
	mustDone(t, doc, resp, "solve")

	mresp, err := http.Get(cl.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", mresp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`worker="coordinator"`,
		`worker="w1"`,
		`worker="w2"`,
		`worker="all"`,
		"incdes_cluster_units_total",
		"incdes_cluster_probes_total",
		"incdes_cluster_unit_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if findings := promtext.Lint(bytes.NewReader(body)); len(findings) > 0 {
		t.Errorf("merged exposition fails lint:\n%s", strings.Join(findings, "\n"))
	}
}

// TestE2EReadyzBody checks the worker health endpoint serves the load
// signal the coordinator's prober consumes, with the status-code
// contract unchanged.
func TestE2EReadyzBody(t *testing.T) {
	w := newWorker(t)
	resp, err := http.Get(w.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz = %d, want 200", resp.StatusCode)
	}
	var doc serve.ReadyDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("readyz body is not JSON: %v", err)
	}
	if doc.Status != "ready" || doc.Draining {
		t.Errorf("readyz doc = %+v", doc)
	}
}

// TestE2ESpanGrafting checks the request-ID propagates to the unit
// requests and the worker-side span tree is grafted into the
// coordinator's trace with a worker attribute.
func TestE2ESpanGrafting(t *testing.T) {
	system := fixtureJSON(t)
	cl := newCluster(t, Options{Workers: []string{newWorker(t).URL}})
	const reqID = "e2e-trace-1"
	doc, resp := postSolve(t, cl.URL, "strategy=sa&sa-restarts=2&sa-iters=100&seed=4", system,
		map[string]string{"X-Incdes-Request-Id": reqID})
	mustDone(t, doc, resp, "solve")

	dresp, err := http.Get(cl.URL + "/v1/debug/requests/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/requests/%s = %d: %s", reqID, dresp.StatusCode, body)
	}
	text := string(body)
	for _, want := range []string{
		"cluster.dispatch",
		"cluster.unit",
		"core.solve",    // the worker-side solve span, grafted
		`"worker":"w1"`, // the graft's worker attribute
	} {
		if !strings.Contains(text, want) {
			t.Errorf("coordinator trace missing %q\n%.600s", want, text)
		}
	}
}

// scrape returns the coordinator's /v1/metrics exposition.
func scrape(t testing.TB, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d: %v", resp.StatusCode, err)
	}
	return string(body)
}

// sampleValue returns the value of one series in an exposition, "" when
// the series is absent.
func sampleValue(text, series string) string {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return ""
}

// TestE2EFleetGaugeRows pins the coordinator's per-worker gauge rows to
// the workers' current values and the fleet row to their sum: w1 holds
// two cached solutions, w2 one.
func TestE2EFleetGaugeRows(t *testing.T) {
	system := fixtureJSON(t)
	w1, w2 := newWorker(t), newWorker(t)
	for _, post := range []struct{ base, query string }{
		{w1.URL, "strategy=ah"}, {w1.URL, "strategy=mh"}, {w2.URL, "strategy=ah"},
	} {
		doc, resp := postSolve(t, post.base, post.query, system, nil)
		mustDone(t, doc, resp, post.query)
	}
	cl := newCluster(t, Options{Workers: []string{w1.URL, w2.URL}, ProbeInterval: time.Hour})
	text := scrape(t, cl.URL)
	for worker, want := range map[string]string{"w1": "2", "w2": "1", "all": "3"} {
		series := `incdes_cache_entries{worker="` + worker + `"}`
		if got := sampleValue(text, series); got != want {
			t.Errorf("%s = %q, want %s", series, got, want)
		}
	}
}

// TestE2EMetricsHungWorkers scrapes a coordinator whose two workers
// never answer: their stats are fetched concurrently, so the scrape
// waits one stats timeout, not one per worker, and shows neither.
func TestE2EMetricsHungWorkers(t *testing.T) {
	cl := newCluster(t, Options{Workers: []string{hungWorker(t).URL, hungWorker(t).URL}, ProbeInterval: time.Hour})
	start := time.Now()
	text := scrape(t, cl.URL)
	if d := time.Since(start); d >= 3*time.Second {
		t.Errorf("scrape took %v with two hung workers, want under 3s", d)
	}
	if !strings.Contains(text, `worker="coordinator"`) || strings.Contains(text, `worker="w1"`) {
		t.Errorf("want the coordinator's rows and no row of a hung worker")
	}
}

// TestE2EProbesHungWorkersConcurrently runs the prober over three hung
// workers and one healthy one. A round probes every worker at once, so
// the healthy worker is probed about once per interval and the hung
// ones are ejected within a few intervals; probed one after another, a
// round took one interval per hung worker.
func TestE2EProbesHungWorkersConcurrently(t *testing.T) {
	const interval = 100 * time.Millisecond
	var probes atomic.Int64
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		json.NewEncoder(w).Encode(serve.ReadyDoc{Status: "ready"})
	}))
	t.Cleanup(healthy.Close)
	// A hung worker freezes on its first POST /v1/solve, which then hangs
	// until the client gives up.
	hung := []string{hungWorker(t).URL, hungWorker(t).URL, hungWorker(t).URL}
	for _, u := range hung {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u+"/v1/solve", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := http.DefaultClient.Do(req); err == nil {
			t.Fatalf("hung worker %s answered its first unit", u)
		}
		cancel()
	}

	c := NewCoordinator(Options{Workers: append(hung, healthy.URL), ProbeInterval: interval})
	t.Cleanup(c.Close)
	start := time.Now()
	for {
		ejected := 0
		for _, w := range c.reg.info() {
			if !w.Healthy {
				ejected++
			}
		}
		if ejected == len(hung) {
			break
		}
		if time.Since(start) > 7*interval {
			t.Fatalf("%d of %d hung workers ejected after %v, want all within 7 intervals", ejected, len(hung), time.Since(start))
		}
		time.Sleep(interval / 10)
	}
	time.Sleep(15*interval - time.Since(start))
	if n := probes.Load(); n < 10 {
		t.Errorf("the healthy worker was probed %d times in 15 intervals, want about one per interval", n)
	}
	for _, w := range c.reg.info() {
		if w.URL == healthy.URL && !w.Healthy {
			t.Error("the healthy worker was ejected")
		}
	}
}
