package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"incdes/internal/obs"
	"incdes/internal/obs/promtext"
)

// hit issues one in-process request against the instrumented handler.
// In-process means the middleware has fully completed (recorder entry,
// slow log) by the time it returns — no polling needed.
func hit(t *testing.T, h http.Handler, method, url, reqID string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRequestIDGeneratedAndHonored(t *testing.T) {
	s := New(Config{Parallelism: 1, MaxConcurrent: 2})
	t.Cleanup(s.Close)
	body := fixtureJSON(t)

	rec := hit(t, s.Handler(), "POST", "/v1/solve?strategy=mh", "", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve = %d: %s", rec.Code, rec.Body.String())
	}
	gen := rec.Header().Get(requestIDHeader)
	if !regexp.MustCompile(`^req-\d{6}$`).MatchString(gen) {
		t.Errorf("generated request ID = %q, want req-NNNNNN", gen)
	}

	rec = hit(t, s.Handler(), "POST", "/v1/solve?strategy=mh", "proxy-abc123", body)
	if got := rec.Header().Get(requestIDHeader); got != "proxy-abc123" {
		t.Errorf("inbound request ID not honored: got %q", got)
	}
	// The job document carries the correlation ID too.
	var doc JobStatusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RequestID != "proxy-abc123" {
		t.Errorf("job doc request_id = %q, want proxy-abc123", doc.RequestID)
	}
}

func TestRequestIDOnErrorEnvelopesAndSSE(t *testing.T) {
	s := New(Config{Parallelism: 1, MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := fixtureJSON(t)

	// Occupy the worker slot and the queue, then overflow for the 429.
	var blocker, queued JobStatusDoc
	if resp := do(t, "POST", ts.URL+"/v1/solve?strategy=sa&sa-iters=50000000&detach=1", body, &blocker); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker = %d", resp.StatusCode)
	}
	pollStatus(t, ts, blocker.ID, StatusRunning)
	if resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh&detach=1", body, &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/solve?strategy=mh", bytes.NewReader(body))
	req.Header.Set(requestIDHeader, "overflow-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(requestIDHeader); got != "overflow-1" {
		t.Errorf("429 envelope %s = %q, want overflow-1", requestIDHeader, got)
	}

	// SSE streams echo the ID: the header is set before dispatch.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	sseReq, _ := http.NewRequestWithContext(sctx, "GET", ts.URL+"/v1/solve/"+blocker.ID+"/events", nil)
	sseReq.Header.Set(requestIDHeader, "sse-1")
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	if got := sseResp.Header.Get(requestIDHeader); got != "sse-1" {
		t.Errorf("SSE %s = %q, want sse-1", requestIDHeader, got)
	}
	if ct := sseResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("SSE Content-Type = %q (Flusher lost through middleware?)", ct)
	}
	sseResp.Body.Close()

	do(t, "DELETE", ts.URL+"/v1/solve/"+blocker.ID, nil, nil)
	do(t, "DELETE", ts.URL+"/v1/solve/"+queued.ID, nil, nil)
	pollStatus(t, ts, blocker.ID, StatusInterrupted, StatusFailed)
	pollStatus(t, ts, queued.ID, StatusInterrupted, StatusFailed, StatusDone)

	// Draining: 503 envelopes still echo the ID.
	s.Close()
	req, _ = http.NewRequest("POST", ts.URL+"/v1/solve?strategy=mh", bytes.NewReader(body))
	req.Header.Set(requestIDHeader, "drain-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("after Close = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(requestIDHeader); got != "drain-1" {
		t.Errorf("503 envelope %s = %q, want drain-1", requestIDHeader, got)
	}
}

func TestDebugRequestSurface(t *testing.T) {
	s := New(Config{Parallelism: 1, MaxConcurrent: 2})
	t.Cleanup(s.Close)
	h := s.Handler()
	body := fixtureJSON(t)

	if rec := hit(t, h, "POST", "/v1/solve?strategy=mh", "dbg-1", body); rec.Code != http.StatusOK {
		t.Fatalf("solve = %d", rec.Code)
	}
	if rec := hit(t, h, "GET", "/v1/solve/nope", "dbg-2", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("missing job = %d", rec.Code)
	}
	// Infrastructure endpoints are excluded from the ring.
	hit(t, h, "GET", "/v1/metrics", "dbg-metrics", nil)
	hit(t, h, "GET", "/healthz", "dbg-health", nil)

	var list struct {
		Requests []obs.RequestDoc `json:"requests"`
	}
	rec := hit(t, h, "GET", "/v1/debug/requests", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("debug list = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Requests) != 2 {
		t.Fatalf("retained %d requests, want 2 (metrics/healthz/debug must not be recorded)", len(list.Requests))
	}
	// Newest first.
	if list.Requests[0].ID != "dbg-2" || list.Requests[1].ID != "dbg-1" {
		t.Errorf("order = %s, %s; want dbg-2, dbg-1", list.Requests[0].ID, list.Requests[1].ID)
	}

	// status filter.
	rec = hit(t, h, "GET", "/v1/debug/requests?status=404", "", nil)
	list.Requests = nil
	json.Unmarshal(rec.Body.Bytes(), &list)
	if len(list.Requests) != 1 || list.Requests[0].ID != "dbg-2" {
		t.Errorf("status=404 filter = %+v", list.Requests)
	}
	// n filter.
	rec = hit(t, h, "GET", "/v1/debug/requests?n=1", "", nil)
	list.Requests = nil
	json.Unmarshal(rec.Body.Bytes(), &list)
	if len(list.Requests) != 1 {
		t.Errorf("n=1 returned %d", len(list.Requests))
	}
	// min-duration filter (nothing takes 10 hours).
	rec = hit(t, h, "GET", "/v1/debug/requests?min-duration=10h", "", nil)
	list.Requests = nil
	json.Unmarshal(rec.Body.Bytes(), &list)
	if len(list.Requests) != 0 {
		t.Errorf("min-duration=10h returned %d", len(list.Requests))
	}
	// Bad filter values are 400s.
	for _, q := range []string{"status=abc", "min-duration=xyz", "n=-1"} {
		if rec := hit(t, h, "GET", "/v1/debug/requests?"+q, "", nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", q, rec.Code)
		}
	}

	// Single-request fetch: the full span tree.
	var doc obs.RequestDoc
	rec = hit(t, h, "GET", "/v1/debug/requests/dbg-1", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("debug get = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != "dbg-1" || doc.Status != http.StatusOK || doc.Method != "POST" {
		t.Errorf("doc header = %+v", doc)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "request" {
		t.Fatalf("span roots = %+v", doc.Spans)
	}
	var names []string
	for _, c := range doc.Spans[0].Children {
		names = append(names, c.Name)
	}
	if want := []string{"queue.wait", "core.solve"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("request children = %v, want %v", names, want)
	}
	if rec := hit(t, h, "GET", "/v1/debug/requests/unknown", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown request = %d, want 404", rec.Code)
	}
}

// debugTree fetches one recorded request's span forest.
func debugTree(t *testing.T, h http.Handler, id string) obs.RequestDoc {
	t.Helper()
	rec := hit(t, h, "GET", "/v1/debug/requests/"+id, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/debug/requests/%s = %d: %s", id, rec.Code, rec.Body.String())
	}
	var doc obs.RequestDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSpanTreeGoldenAcrossParallelism pins the span-determinism rule:
// for a fixed request ID and problem, the span STRUCTURE (names,
// parentage, sibling order, IDs, attrs) is byte-identical at
// parallelism 1 and 4, and matches the checked-in golden file. Only
// durations may differ, and StructureString omits them.
func TestSpanTreeGoldenAcrossParallelism(t *testing.T) {
	body := fixtureJSON(t)
	structure := func(par int) string {
		s := New(Config{Parallelism: par, MaxConcurrent: 2})
		defer s.Close()
		url := fmt.Sprintf("/v1/solve?strategy=portfolio&parallel=%d", par)
		if rec := hit(t, s.Handler(), "POST", url, "req-golden", body); rec.Code != http.StatusOK {
			t.Fatalf("portfolio solve (parallel=%d) = %d: %s", par, rec.Code, rec.Body.String())
		}
		return obs.StructureString(debugTree(t, s.Handler(), "req-golden").Spans)
	}

	got1 := structure(1)
	got4 := structure(4)
	if got1 != got4 {
		t.Fatalf("span structure differs across parallelism:\n--- parallel=1\n%s--- parallel=4\n%s", got1, got4)
	}

	const golden = "testdata/span_tree.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got1 != string(want) {
		t.Errorf("span structure drifted from golden (UPDATE_GOLDEN=1 to accept):\n--- got\n%s--- want\n%s", got1, want)
	}
}

// TestFollowerLeaderSpanLinkage pins the single-flight trace linkage:
// every member of a flight — a follower that joins it in flight (or
// already landed) and a hit that joins its kept result — has a
// cache.follow span whose leader_span attribute names the leader's
// cache.flight span.
func TestFollowerLeaderSpanLinkage(t *testing.T) {
	s, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 1, QueueDepth: 8, SolutionCacheSize: 8})
	body := fixtureJSON(t)
	const query = "/v1/solve?strategy=sa&sa-iters=4000&seed=7"

	post := func(id, query string) *http.Response {
		req, _ := http.NewRequest("POST", ts.URL+query, bytes.NewReader(body))
		req.Header.Set(requestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post("flight-leader", query+"&detach=1")
	var leader JobStatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&leader); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get(cacheHeader) != "miss" {
		t.Fatalf("leader = %d %s=%q", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
	}
	pollStatus(t, ts, leader.ID, StatusRunning, StatusDone)
	members := map[string]string{}
	for _, id := range []string{"flight-follower", "flight-hit"} {
		resp := post(id, query)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		members[id] = resp.Header.Get(cacheHeader)
		pollStatus(t, ts, leader.ID, StatusDone)
	}
	if members["flight-hit"] != "hit" {
		t.Errorf("request after the flight landed = %q, want hit", members["flight-hit"])
	}

	findSpan := func(doc obs.RequestDoc, name string) *obs.SpanNode {
		var found *obs.SpanNode
		var walk func(n *obs.SpanNode)
		walk = func(n *obs.SpanNode) {
			if n.Name == name {
				found = n
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		for _, r := range doc.Spans {
			walk(r)
		}
		return found
	}

	flight := findSpan(debugTree(t, s.Handler(), "flight-leader"), "cache.flight")
	if flight == nil {
		t.Fatal("leader trace has no cache.flight span")
	}
	for id, mode := range members {
		follow := findSpan(debugTree(t, s.Handler(), id), "cache.follow")
		if follow == nil {
			t.Errorf("%s (%s) trace has no cache.follow span", id, mode)
			continue
		}
		if got := follow.Attrs["leader_span"]; got != flight.ID {
			t.Errorf("%s (%s) leader_span = %q, want leader flight span %q", id, mode, got, flight.ID)
		}
	}
}

func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	s := New(Config{
		Parallelism:    1,
		MaxConcurrent:  2,
		SlowRequestLog: time.Nanosecond, // everything is slow
		SlowLogger:     log.New(writerFunc(func(p []byte) (int, error) { mu.Lock(); defer mu.Unlock(); return buf.Write(p) }), "", 0),
	})
	t.Cleanup(s.Close)

	if rec := hit(t, s.Handler(), "POST", "/v1/solve?strategy=mh", "slow-1", fixtureJSON(t)); rec.Code != http.StatusOK {
		t.Fatalf("solve = %d", rec.Code)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		"slow-request id=slow-1 method=POST path=/v1/solve status=200",
		"duration_ms=",
		"spans=request:",
		"core.solve:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow log missing %q:\n%s", want, out)
		}
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestMetricsHistogramsLintClean is the acceptance gate: after real
// traffic, /v1/metrics exposes at least 4 native histograms with
// observations and the whole exposition passes the metrics linter.
func TestMetricsHistogramsLintClean(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	body := fixtureJSON(t)
	sysJSON, apps, _ := sessionFixture(t)

	do(t, "POST", ts.URL+"/v1/solve?strategy=mh", body, nil) // miss: solve+queue+lookup
	do(t, "POST", ts.URL+"/v1/solve?strategy=mh", body, nil) // hit: lookup
	id := openSession(t, ts, sysJSON, "")
	commitApp(t, ts, id, apps[0], "?strategy=mh") // commit histogram

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)

	if problems := promtext.Lint(bytes.NewReader(out)); len(problems) != 0 {
		t.Errorf("metrics lint problems: %q", problems)
	}

	// Count distinct serve histograms with at least one observation.
	counts := map[string]float64{}
	re := regexp.MustCompile(`^(incdes_serve_\w+_seconds)_count(?:\{[^}]*\})? ([0-9.e+-]+)$`)
	for _, line := range strings.Split(string(out), "\n") {
		if m := re.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseFloat(m[2], 64)
			counts[m[1]] += v
		}
	}
	nonzero := 0
	for name, v := range counts {
		if v > 0 {
			nonzero++
		} else {
			t.Logf("histogram %s has no observations", name)
		}
	}
	if nonzero < 4 {
		t.Errorf("only %d serve histograms carry observations, want >= 4 (%v)", nonzero, counts)
	}
}

// TestDetachedJobDocCarriesSpans pins the detached-job surface: once
// terminal, GET /v1/solve/{id} includes the request ID and the span
// summaries of the solve that ran after the 202.
func TestDetachedJobDocCarriesSpans(t *testing.T) {
	_, ts := newTestServer(t)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/solve?strategy=mh&detach=1", bytes.NewReader(fixtureJSON(t)))
	req.Header.Set(requestIDHeader, "detach-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var accepted JobStatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("detach = %d", resp.StatusCode)
	}
	doc := pollStatus(t, ts, accepted.ID, StatusDone)
	if doc.RequestID != "detach-1" {
		t.Errorf("terminal doc request_id = %q, want detach-1", doc.RequestID)
	}
	var names []string
	for _, sp := range doc.Spans {
		names = append(names, sp.Name)
		if sp.Name == "core.solve" && sp.DurationNS <= 0 {
			t.Errorf("core.solve duration = %d, want > 0", sp.DurationNS)
		}
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "core.solve") || !strings.Contains(joined, "queue.wait") {
		t.Errorf("span summaries = %v, want queue.wait and core.solve", names)
	}
}
