package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"incdes/internal/core"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/obs/promtext"
)

func fixtureJSON(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../../testdata/system.json")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Parallelism: 1, MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// TestSolveMatchesDirectSolve pins the acceptance contract: the served
// solution document is byte-identical to one built from a direct
// core.Solve call on the same fixture.
func TestSolveMatchesDirectSolve(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/solve?strategy=mh", "application/json", bytes.NewReader(fixtureJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/solve = %d: %s", resp.StatusCode, body)
	}
	var got struct {
		ID       string          `json:"id"`
		Status   string          `json:"status"`
		Strategy string          `json:"strategy"`
		Solution json.RawMessage `json:"solution"`
		Stats    *obs.Snapshot   `json:"stats"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if got.Status != StatusDone || got.Strategy != "MH" || got.ID == "" {
		t.Fatalf("job doc = %+v", got)
	}
	if got.Stats == nil || got.Stats.Counters[obs.CtrEvaluations] == 0 {
		t.Error("per-request stats snapshot missing from response")
	}

	sys, err := model.ReadSystem(bytes.NewReader(fixtureJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildProblem(sys, "")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(context.Background(), p, core.Options{Strategy: core.MH, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := NewSolutionDoc(sol)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got.Solution), want) {
		t.Errorf("served solution differs from direct core.Solve:\nserved: %.200s\ndirect: %.200s", got.Solution, want)
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/solve?strategy=nope", "application/json", bytes.NewReader(fixtureJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown strategy: status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/solve/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", resp.StatusCode)
	}
}

// parseMetrics is a minimal exposition-format checker: every non-comment
// line must be `name[{labels}] value`; it returns the seen metric names.
func parseMetrics(t *testing.T, out string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || value == "" || strings.ContainsAny(value, " \t") {
			t.Fatalf("malformed sample line %q", line)
		}
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("malformed labels in %q", line)
			}
			name = name[:brace]
		}
		names[name] = true
	}
	return names
}

func TestMetricsExposesCatalog(t *testing.T) {
	_, ts := newTestServer(t)
	// One completed solve so per-strategy aggregates exist.
	resp, err := http.Post(ts.URL+"/v1/solve?strategy=mh", "application/json", bytes.NewReader(fixtureJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	out := string(body)
	names := parseMetrics(t, out)
	for _, ins := range obs.Catalog() {
		want := promtext.MetricName(promtext.DefaultNamespace, ins.Name, ins.Kind)
		if ins.Kind == obs.KindHistogram {
			// Histogram samples carry the _bucket/_sum/_count suffixes;
			// the base name appears only in HELP/TYPE.
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if !names[want+sfx] {
					t.Errorf("/metrics missing catalog histogram series %q (instrument %q)", want+sfx, ins.Name)
				}
			}
			continue
		}
		if !names[want] {
			t.Errorf("/metrics missing catalog metric %q (instrument %q)", want, ins.Name)
		}
	}
	for _, want := range []string{
		"incdes_process_uptime_seconds",
		"incdes_process_goroutines",
		"incdes_process_heap_alloc_bytes",
		"incdes_solves_in_flight",
		"incdes_solves_queued",
		"incdes_solves_total",
	} {
		if !names[want] {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, want := range []string{
		`incdes_core_evaluations_total{strategy="MH"}`,
		`incdes_core_evaluations_total{strategy="all"}`,
		`incdes_solves_total{status="done",strategy="MH"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing sample %q", want)
		}
	}
}

type sseEvent struct {
	kind string
	id   string
	data string
}

// readSSE parses a complete SSE response body into events.
func readSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, block := range strings.Split(body, "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "id: "):
				ev.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
		if ev.kind == "" || ev.data == "" {
			t.Fatalf("incomplete SSE block %q", block)
		}
		events = append(events, ev)
	}
	return events
}

// streamJob submits a detached solve and returns the full SSE stream
// plus the finished job document.
func streamJob(t *testing.T, ts *httptest.Server) ([]sseEvent, JobStatusDoc) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve?strategy=mh&detach=1", "application/json", bytes.NewReader(fixtureJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("detached POST /v1/solve = %d: %s", resp.StatusCode, body)
	}
	var accepted JobStatusDoc
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/v1/solve/" + accepted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body) // handler returns after the done event
	resp.Body.Close()
	events := readSSE(t, string(stream))

	resp, err = http.Get(ts.URL + "/v1/solve/" + accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var final JobStatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return events, final
}

func TestSSEOrderingAndReplay(t *testing.T) {
	_, ts := newTestServer(t)
	events, final := streamJob(t, ts)
	if final.Status != StatusDone || final.Solution == nil {
		t.Fatalf("job did not finish cleanly: %+v", final)
	}

	var traces []obs.TraceEvent
	var costs, dones int
	var lastCost float64
	for _, ev := range events {
		switch ev.kind {
		case "trace":
			var te obs.TraceEvent
			if err := json.Unmarshal([]byte(ev.data), &te); err != nil {
				t.Fatalf("trace event is not JSON: %v (%q)", err, ev.data)
			}
			if want := int64(len(traces) + 1); te.Seq != want {
				t.Fatalf("trace %d has seq %d: stream is out of order", len(traces), te.Seq)
			}
			if ev.id != fmt.Sprint(te.Seq) {
				t.Errorf("SSE id %q != seq %d", ev.id, te.Seq)
			}
			traces = append(traces, te)
		case "cost":
			var c ssePayload
			if err := json.Unmarshal([]byte(ev.data), &c); err != nil {
				t.Fatalf("cost event is not JSON: %v", err)
			}
			costs++
			if c.N != costs {
				t.Fatalf("cost point %d arrived as n=%d", costs, c.N)
			}
			lastCost = c.Cost
		case "done":
			dones++
		default:
			t.Fatalf("unknown SSE event kind %q", ev.kind)
		}
	}
	if len(traces) == 0 || costs == 0 || dones != 1 {
		t.Fatalf("stream shape: %d traces, %d costs, %d dones", len(traces), costs, dones)
	}
	if traces[0].Kind != "solve.start" || traces[len(traces)-1].Kind != "solve.done" {
		t.Errorf("stream not bracketed: first %q last %q", traces[0].Kind, traces[len(traces)-1].Kind)
	}

	// The stream must replay to the same final cost as the returned
	// solution — both via the solve.done trace event and the cost curve.
	replayed, ok := obs.FinalCost(traces)
	if !ok || replayed != final.Solution.Objective {
		t.Errorf("trace replays to %v, solution reports %v", replayed, final.Solution.Objective)
	}
	if lastCost != final.Solution.Objective {
		t.Errorf("last cost-curve point %v != objective %v", lastCost, final.Solution.Objective)
	}

	// Determinism: a second identical job streams identical payloads.
	events2, _ := streamJob(t, ts)
	if len(events2) != len(events) {
		t.Fatalf("second run streamed %d events, first %d", len(events2), len(events))
	}
	for i := range events {
		if events[i].kind != events2[i].kind || events[i].data != events2[i].data {
			t.Fatalf("event %d differs across runs:\n%s %s\n%s %s",
				i, events[i].kind, events[i].data, events2[i].kind, events2[i].data)
		}
	}
}

func TestClientDisconnectReturnsInterrupted(t *testing.T) {
	s := New(Config{Parallelism: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/solve?strategy=sa&sa-iters=50000000", bytes.NewReader(fixtureJSON(t))).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(300 * time.Millisecond) // let the solve get under way
		cancel()
	}()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var doc JobStatusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != StatusInterrupted || doc.Solution == nil || !doc.Solution.Interrupted {
		t.Fatalf("disconnected solve = %+v, want interrupted best-so-far", doc)
	}
	if doc.Solution.Design == nil {
		t.Error("interrupted solve carries no design")
	}
}

func TestQueueDepthBoundsAdmission(t *testing.T) {
	s := New(Config{QueueDepth: 2})
	defer s.Close()
	if _, err := s.submit("MH", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit("MH", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit("MH", nil); err == nil {
		t.Fatal("third submission admitted past QueueDepth=2")
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	s.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz after Close = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(fixtureJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST /v1/solve while draining = %d, want 503", resp.StatusCode)
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	off := httptest.NewServer(New(Config{}).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without flag = %d, want 404", resp.StatusCode)
	}
	on := httptest.NewServer(New(Config{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with flag = %d, want 200", resp.StatusCode)
	}
}

// TestDeleteBeforeJobStarts: a DELETE that arrives before a detached
// job's goroutine has derived its context still cancels the job. Before,
// the DELETE found no cancel function and was lost, so a follower whose
// DELETE came first kept waiting on its flight.
func TestDeleteBeforeJobStarts(t *testing.T) {
	s, _ := newTestServer(t)
	j := s.register("mh", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/solve/"+j.id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE = %d", rec.Code)
	}
	ctx, release := s.jobContext(context.Background(), j, 0)
	defer release()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the job's context outlived its DELETE")
	}
}

func TestCancelEndpointInterruptsDetachedJob(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/solve?strategy=sa&sa-iters=50000000&detach=1", "application/json", bytes.NewReader(fixtureJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	var accepted JobStatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	time.Sleep(300 * time.Millisecond)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/solve/"+accepted.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(ts.URL + "/v1/solve/" + accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		var doc JobStatusDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if doc.Status == StatusInterrupted {
			if doc.Solution == nil || !doc.Solution.Interrupted {
				t.Fatalf("cancelled job doc = %+v", doc)
			}
			return
		}
		if doc.Status == StatusDone || doc.Status == StatusFailed {
			t.Fatalf("cancelled job ended %q", doc.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never interrupted (status %q)", doc.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestMetricsEverySeriesDeclaredAndAggregated pins two properties of
// /v1/metrics once every kind of job has run (AH, MH, SA and portfolio
// solves plus a session commit): every exported instrument is declared
// in the obs catalog — promtext falls back to the help text
// "instrument <name>" only for undeclared names — and every
// per-strategy series of a catalog metric has its {strategy="all"}
// counterpart with the same remaining labels.
func TestMetricsEverySeriesDeclaredAndAggregated(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{"ah", "mh", "sa&sa-iters=200", "portfolio&sa-iters=200"} {
		oneShot(t, ts, fixtureJSON(t), "?strategy="+q)
	}
	sysJSON, appJSON, _ := sessionFixture(t)
	commitApp(t, ts, openSession(t, ts, sysJSON, ""), appJSON[0], "?strategy=mh")

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	catalog := map[string]bool{}
	for _, ins := range obs.Catalog() {
		name := promtext.MetricName(promtext.DefaultNamespace, ins.Name, ins.Kind)
		catalog[name] = true
		if ins.Kind == obs.KindHistogram {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				catalog[name+sfx] = true
			}
		}
	}
	strategyLabel := regexp.MustCompile(`strategy="[^"]*"`)
	series := map[string]bool{}
	var perStrategy []string
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if help, ok := strings.CutPrefix(line, "# HELP "); ok {
			if _, text, _ := strings.Cut(help, " "); strings.HasPrefix(text, "instrument ") {
				t.Errorf("undeclared instrument exported: %s", line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, _, _ := strings.Cut(line, " ")
		series[key] = true
		name, _, _ := strings.Cut(key, "{")
		if label := strategyLabel.FindString(key); catalog[name] && label != "" && label != `strategy="all"` {
			perStrategy = append(perStrategy, key)
		}
	}
	tags := map[string]bool{}
	for _, key := range perStrategy {
		tags[strategyLabel.FindString(key)] = true
		if all := strategyLabel.ReplaceAllString(key, `strategy="all"`); !series[all] {
			t.Errorf("series %s has no %s counterpart", key, all)
		}
	}
	for _, tag := range []string{"AH", "MH", "SA", "portfolio"} {
		if !tags[`strategy="`+tag+`"`] {
			t.Errorf("no per-strategy series for %s", tag)
		}
	}
}
