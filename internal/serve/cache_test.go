package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"incdes/internal/core"
	"incdes/internal/model"
)

// newCachingServer is newTestServer with the solution cache enabled.
func newCachingServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// metricValue scrapes /metrics and returns one sample's value.
func metricValue(t *testing.T, ts *httptest.Server, metric, strategy string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("%s{strategy=%q} ", metric, strategy)
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %q in /metrics", prefix)
	return 0
}

// rawJobDoc keeps the solution document's bytes exactly as transmitted,
// for byte-identity assertions.
type rawJobDoc struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Solution json.RawMessage `json:"solution"`
}

// pollStatus waits for GET /v1/solve/{id} to report one of the wanted
// statuses.
func pollStatus(t *testing.T, ts *httptest.Server, id string, want ...string) JobStatusDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var doc JobStatusDoc
		if resp := do(t, "GET", ts.URL+"/v1/solve/"+id, nil, &doc); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/solve/%s = %d", id, resp.StatusCode)
		}
		for _, w := range want {
			if doc.Status == w {
				return doc
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %q, want one of %v", id, doc.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSolveCacheMissThenHit pins the acceptance contract of the
// solution cache: the second identical request is served from the LRU
// with the byte-identical document, zero new engine evaluations, and
// the X-Incdes-Cache header sequence miss → hit.
func TestSolveCacheMissThenHit(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	body := fixtureJSON(t)

	var first rawJobDoc
	resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh", body, &first)
	if resp.StatusCode != http.StatusOK || first.Status != StatusDone {
		t.Fatalf("first solve = %d %q", resp.StatusCode, first.Status)
	}
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("first solve %s = %q, want miss", cacheHeader, got)
	}
	evalsAfterMiss := metricValue(t, ts, "incdes_core_evaluations_total", "all")
	if evalsAfterMiss <= 0 {
		t.Fatalf("no evaluations recorded after a real solve")
	}

	var second rawJobDoc
	resp = do(t, "POST", ts.URL+"/v1/solve?strategy=mh", body, &second)
	if resp.StatusCode != http.StatusOK || second.Status != StatusDone {
		t.Fatalf("second solve = %d %q", resp.StatusCode, second.Status)
	}
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Fatalf("second solve %s = %q, want hit", cacheHeader, got)
	}
	if !bytes.Equal(first.Solution, second.Solution) {
		t.Errorf("cached solution differs from the original:\nmiss: %.200s\nhit:  %.200s", first.Solution, second.Solution)
	}
	if second.ID == first.ID {
		t.Error("hit reused the original job id")
	}
	// The acceptance criterion: a hit does zero engine work.
	if got := metricValue(t, ts, "incdes_core_evaluations_total", "all"); got != evalsAfterMiss {
		t.Errorf("hit ran %v new evaluations, want 0", got-evalsAfterMiss)
	}
	if got := metricValue(t, ts, "incdes_cache_hits_total", "all"); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}
	if got := metricValue(t, ts, "incdes_cache_stores_total", "all"); got != 1 {
		t.Errorf("cache stores = %v, want 1", got)
	}
	if got := metricValue(t, ts, "incdes_cache_entries", "all"); got != 1 {
		t.Errorf("cache entries gauge = %v, want 1", got)
	}

	// And the cached document is byte-identical to a direct library
	// solve of the same problem.
	sys, err := model.ReadSystem(bytes.NewReader(body))
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
	want, err := NewSolutionDoc(sol)
	if err != nil {
		t.Fatal(err)
	}
	if wantJSON := marshal(t, want); !bytes.Equal(second.Solution, wantJSON) {
		t.Errorf("cached solution differs from direct core.Solve:\nhit:    %.200s\ndirect: %.200s", second.Solution, wantJSON)
	}
}

// TestSolveCacheOffBypasses pins the per-request opt-out: cache=off
// neither reads nor writes the cache and sets no header.
func TestSolveCacheOffBypasses(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	body := fixtureJSON(t)

	resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh", body, nil)
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("warm-up solve header = %q, want miss", got)
	}
	evals := metricValue(t, ts, "incdes_core_evaluations_total", "all")

	// cache=off must re-solve even though an identical entry is cached.
	resp = do(t, "POST", ts.URL+"/v1/solve?strategy=mh&cache=off", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache=off solve = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(cacheHeader); got != "" {
		t.Errorf("cache=off set %s = %q, want no header", cacheHeader, got)
	}
	if got := metricValue(t, ts, "incdes_core_evaluations_total", "all"); got <= evals {
		t.Error("cache=off request did not run the engine")
	}
	if got := metricValue(t, ts, "incdes_cache_hits_total", "all"); got != 0 {
		t.Errorf("cache hits = %v, want 0", got)
	}
	if got := metricValue(t, ts, "incdes_cache_stores_total", "all"); got != 1 {
		t.Errorf("cache stores = %v, want 1 (cache=off must not store)", got)
	}
	if resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh&cache=banana", body, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cache= value = %d, want 400", resp.StatusCode)
	}
}

// TestSolveSingleFlightCoalesces pins the dedup contract end to end:
// concurrent identical requests run ONE solve; followers replay the
// leader's result byte-identically and are marked inflight.
func TestSolveSingleFlightCoalesces(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 1, QueueDepth: 8, SolutionCacheSize: 8})
	body := fixtureJSON(t)
	// ~0.6s of annealing: long enough that followers provably join the
	// flight (they are issued after the leader reports running), short
	// enough to keep the test quick.
	const query = "/v1/solve?strategy=sa&sa-iters=4000&seed=7"

	var leader JobStatusDoc
	resp := do(t, "POST", ts.URL+query+"&detach=1", body, &leader)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get(cacheHeader) != "miss" {
		t.Fatalf("leader = %d, %s = %q", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
	}
	pollStatus(t, ts, leader.ID, StatusRunning, StatusDone)

	const followers = 3
	headers := make([]string, followers)
	docs := make([]rawJobDoc, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := do(t, "POST", ts.URL+query, body, &docs[i])
			headers[i] = resp.Header.Get(cacheHeader)
		}(i)
	}
	wg.Wait()
	final := pollStatus(t, ts, leader.ID, StatusDone)
	leaderJSON := marshal(t, final.Solution)

	for i := 0; i < followers; i++ {
		if headers[i] != "inflight" && headers[i] != "hit" {
			t.Errorf("follower %d header = %q, want inflight (or hit)", i, headers[i])
		}
		if docs[i].Status != StatusDone {
			t.Errorf("follower %d status = %q", i, docs[i].Status)
		}
		if !bytes.Equal(docs[i].Solution, leaderJSON) {
			t.Errorf("follower %d solution differs from the leader's", i)
		}
	}
	// The decisive assertion: one strategy run total, for 4 requests.
	if got := metricValue(t, ts, "incdes_core_solves_total", "all"); got != 1 {
		t.Errorf("core solves = %v, want 1 (followers must coalesce)", got)
	}
	if got := metricValue(t, ts, "incdes_cache_misses_total", "all"); got != 1 {
		t.Errorf("cache misses = %v, want 1", got)
	}
	inflight := metricValue(t, ts, "incdes_cache_inflight_dedup_total", "all")
	hits := metricValue(t, ts, "incdes_cache_hits_total", "all")
	if inflight+hits != followers {
		t.Errorf("inflight(%v) + hits(%v) != %d followers", inflight, hits, followers)
	}

	// A later identical request is a plain hit off the stored entry.
	if resp := do(t, "POST", ts.URL+query, body, nil); resp.Header.Get(cacheHeader) != "hit" {
		t.Errorf("post-flight request header = %q, want hit", resp.Header.Get(cacheHeader))
	}
}

// TestSolveFlightMembersShareLeaderTrace: every member of a flight — an
// in-flight follower, a synchronous hit and a detached hit — streams the
// leader's SSE trace frame for frame, and its collector holds the
// leader's events themselves, not a copy. A blocker in the only worker
// slot holds the leader back, so the follower joins before the flight
// lands.
func TestSolveFlightMembersShareLeaderTrace(t *testing.T) {
	s, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 1, QueueDepth: 8, SolutionCacheSize: 8})
	body := fixtureJSON(t)
	var blocker, leader, follower, detachedHit JobStatusDoc
	do(t, "POST", ts.URL+"/v1/solve?strategy=sa&sa-iters=50000000&detach=1", body, &blocker)
	pollStatus(t, ts, blocker.ID, StatusRunning)
	const query = "/v1/solve?strategy=mh"
	if resp := do(t, "POST", ts.URL+query+"&detach=1", body, &leader); resp.Header.Get(cacheHeader) != "miss" {
		t.Fatalf("leader %s = %q, want miss", cacheHeader, resp.Header.Get(cacheHeader))
	}
	if resp := do(t, "POST", ts.URL+query+"&detach=1", body, &follower); resp.Header.Get(cacheHeader) != "inflight" {
		t.Fatalf("follower %s = %q, want inflight", cacheHeader, resp.Header.Get(cacheHeader))
	}
	do(t, "DELETE", ts.URL+"/v1/solve/"+blocker.ID, nil, nil)
	pollStatus(t, ts, leader.ID, StatusDone)

	var syncHit rawJobDoc
	if resp := do(t, "POST", ts.URL+query, body, &syncHit); resp.Header.Get(cacheHeader) != "hit" || syncHit.Status != StatusDone {
		t.Fatalf("synchronous hit %s = %q, status %q", cacheHeader, resp.Header.Get(cacheHeader), syncHit.Status)
	}
	if resp := do(t, "POST", ts.URL+query+"&detach=1", body, &detachedHit); resp.Header.Get(cacheHeader) != "hit" {
		t.Fatalf("detached hit %s = %q, want hit", cacheHeader, resp.Header.Get(cacheHeader))
	}

	// stream reads a job's SSE stream to its done event and returns its
	// trace and cost frames and the decoded done payload.
	stream := func(id string) ([]sseEvent, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/solve/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var frames []sseEvent
		var done map[string]any
		for _, ev := range readSSE(t, string(raw)) {
			if ev.kind == "done" {
				if err := json.Unmarshal([]byte(ev.data), &done); err != nil {
					t.Fatal(err)
				}
				continue
			}
			frames = append(frames, ev)
		}
		if done == nil {
			t.Fatalf("job %s streamed no done event", id)
		}
		return frames, done
	}
	want, wantDone := stream(leader.ID)
	if len(want) == 0 {
		t.Fatal("the leader streamed no trace")
	}
	for _, id := range []string{follower.ID, syncHit.ID, detachedHit.ID} {
		got, done := stream(id)
		if len(got) != len(want) {
			t.Fatalf("job %s streamed %d frames, the leader %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("job %s frame %d = %+v, the leader's %+v", id, i, got[i], want[i])
			}
		}
		if done["objective"] != wantDone["objective"] || done["evaluations"] != wantDone["evaluations"] {
			t.Errorf("job %s done = %v, the leader's %v", id, done, wantDone)
		}
	}

	lead := s.job(leader.ID).buf.Events()
	for _, id := range []string{follower.ID, syncHit.ID, detachedHit.ID} {
		if evs := s.job(id).buf.Events(); len(evs) != len(lead) || &evs[0] != &lead[0] {
			t.Errorf("job %s holds a copy of the leader's %d events, not the events themselves", id, len(lead))
		}
	}
}

// TestSolveLeaderCancelPromotesFollower pins the flight's ownership
// rule: cancelling the leader's request must not kill the solve while a
// follower waits on it, and an interrupted solve is never cached.
func TestSolveLeaderCancelPromotesFollower(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 1, QueueDepth: 8, SolutionCacheSize: 8})
	body := fixtureJSON(t)
	// Effectively endless: the test tears it down via DELETE.
	const query = "/v1/solve?strategy=sa&sa-iters=50000000&detach=1"

	var leader JobStatusDoc
	if resp := do(t, "POST", ts.URL+query, body, &leader); resp.Header.Get(cacheHeader) != "miss" {
		t.Fatalf("leader header = %q, want miss", resp.Header.Get(cacheHeader))
	}
	pollStatus(t, ts, leader.ID, StatusRunning)

	var follower JobStatusDoc
	if resp := do(t, "POST", ts.URL+query, body, &follower); resp.Header.Get(cacheHeader) != "inflight" {
		t.Fatalf("follower header = %q, want inflight", resp.Header.Get(cacheHeader))
	}

	// Cancel the leader: its job fails (it abandoned the coalesced
	// solve) but the flight lives on for the follower.
	do(t, "DELETE", ts.URL+"/v1/solve/"+leader.ID, nil, nil)
	lfin := pollStatus(t, ts, leader.ID, StatusFailed)
	if !strings.Contains(lfin.Error, "abandoned coalesced solve") {
		t.Errorf("cancelled leader error = %q", lfin.Error)
	}
	if doc := pollStatus(t, ts, follower.ID, StatusRunning); doc.Status != StatusRunning {
		t.Fatalf("follower status after leader cancel = %q", doc.Status)
	}

	// Cancel the follower too — the last member out winds the solve down
	// to its best-so-far, which the follower still receives.
	do(t, "DELETE", ts.URL+"/v1/solve/"+follower.ID, nil, nil)
	ffin := pollStatus(t, ts, follower.ID, StatusInterrupted)
	if ffin.Solution == nil || !ffin.Solution.Interrupted {
		t.Fatalf("interrupted follower has no best-so-far solution: %+v", ffin)
	}
	// Interrupted solves must never poison the cache.
	if got := metricValue(t, ts, "incdes_cache_stores_total", "all"); got != 0 {
		t.Errorf("cache stores = %v after interrupted flight, want 0", got)
	}
	if resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh", body, nil); resp.Header.Get(cacheHeader) != "miss" {
		t.Errorf("fresh request header = %q, want miss", resp.Header.Get(cacheHeader))
	}
}

// TestSessionCommitAlwaysSolves: a commit always solves, also with the
// solution cache on. The same application committed on two fresh
// branches of version 0 runs two solves with byte-identical solutions,
// neither answer carries a cache annotation, and the table keeps only
// the one-shot solve it held before.
func TestSessionCommitAlwaysSolves(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	if resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh", fixtureJSON(t), nil); resp.Header.Get(cacheHeader) != "miss" {
		t.Fatalf("solve %s = %q, want miss", cacheHeader, resp.Header.Get(cacheHeader))
	}
	entries := metricValue(t, ts, "incdes_cache_entries", "all")
	sysJSON, apps, _ := sessionFixture(t)
	id := openSession(t, ts, sysJSON, "")
	solves := metricValue(t, ts, "incdes_core_solves_total", "all")

	var sols [][]byte
	for _, branch := range []string{"b", "c"} {
		if resp := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/branches?name="+branch+"&from=0", nil, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("branch %s = %d", branch, resp.StatusCode)
		}
		var raw json.RawMessage
		resp := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/commits?strategy=mh&branch="+branch, apps[0], &raw)
		var doc JobStatusDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || doc.Status != StatusDone || doc.Solution == nil {
			t.Fatalf("commit on %s = %d %q", branch, resp.StatusCode, doc.Status)
		}
		if h := resp.Header.Get(cacheHeader); h != "" || bytes.Contains(raw, []byte(`"cache_hit"`)) {
			t.Errorf("commit on %s carries a cache annotation: %s = %q, body %s", branch, cacheHeader, h, raw)
		}
		sols = append(sols, marshal(t, doc.Solution))
	}
	if got := metricValue(t, ts, "incdes_core_solves_total", "all"); got != solves+2 {
		t.Errorf("core solves = %v after two commits, want %v", got, solves+2)
	}
	if !bytes.Equal(sols[0], sols[1]) {
		t.Error("two commits of one application on version 0 differ — determinism broken")
	}
	if got := metricValue(t, ts, "incdes_cache_entries", "all"); got != entries {
		t.Errorf("cache entries = %v after the commits, want %v", got, entries)
	}
}

// TestQueueFullStillCoalesces: with the one queue position taken, a
// request identical to the running solve still joins its flight — a
// follower takes no queue position — while a new leader is refused.
func TestQueueFullStillCoalesces(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 1, QueueDepth: 1, SolutionCacheSize: 8})
	body := fixtureJSON(t)
	const endless = "/v1/solve?strategy=sa&sa-iters=50000000&detach=1"

	var blocker, queued, follower JobStatusDoc
	if resp := do(t, "POST", ts.URL+endless, body, &blocker); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker = %d", resp.StatusCode)
	}
	pollStatus(t, ts, blocker.ID, StatusRunning)
	if resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh&detach=1", body, &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job = %d", resp.StatusCode)
	}
	if resp, doc := postError(t, ts, "/v1/solve?strategy=ah", body); resp.StatusCode != http.StatusTooManyRequests || doc.Error.Code != ErrCodeQueueFull {
		t.Errorf("new leader with the queue full = %d %q, want 429 %s", resp.StatusCode, doc.Error.Code, ErrCodeQueueFull)
	}
	resp := do(t, "POST", ts.URL+endless, body, &follower)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get(cacheHeader) != "inflight" {
		t.Fatalf("identical request with the queue full = %d, %s = %q; want 202 inflight", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
	}

	for _, id := range []string{follower.ID, blocker.ID, queued.ID} {
		do(t, "DELETE", ts.URL+"/v1/solve/"+id, nil, nil)
	}
	for _, id := range []string{follower.ID, blocker.ID, queued.ID} {
		pollStatus(t, ts, id, StatusInterrupted, StatusFailed, StatusDone)
	}
}

// TestLeaderCancelledWhileQueuedLandsFlight: a leader cancelled before
// its solve starts lands its flight with that error, so its follower
// fails at once instead of waiting on a solve nobody runs, and the next
// identical request leads afresh.
func TestLeaderCancelledWhileQueuedLandsFlight(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 1, QueueDepth: 8, SolutionCacheSize: 8})
	body := fixtureJSON(t)
	var blocker, leader, follower, again JobStatusDoc
	do(t, "POST", ts.URL+"/v1/solve?strategy=sa&sa-iters=50000000&detach=1", body, &blocker)
	pollStatus(t, ts, blocker.ID, StatusRunning)
	const query = "/v1/solve?strategy=mh&detach=1"
	do(t, "POST", ts.URL+query, body, &leader)
	if resp := do(t, "POST", ts.URL+query, body, &follower); resp.Header.Get(cacheHeader) != "inflight" {
		t.Fatalf("follower %s = %q, want inflight", cacheHeader, resp.Header.Get(cacheHeader))
	}

	do(t, "DELETE", ts.URL+"/v1/solve/"+leader.ID, nil, nil)
	lfin := pollStatus(t, ts, leader.ID, StatusFailed)
	if ffin := pollStatus(t, ts, follower.ID, StatusFailed); ffin.Error != lfin.Error {
		t.Errorf("follower error = %q, want the leader's %q", ffin.Error, lfin.Error)
	}
	if resp := do(t, "POST", ts.URL+query, body, &again); resp.Header.Get(cacheHeader) != "miss" {
		t.Errorf("next identical request %s = %q, want miss", cacheHeader, resp.Header.Get(cacheHeader))
	}

	do(t, "DELETE", ts.URL+"/v1/solve/"+blocker.ID, nil, nil)
	pollStatus(t, ts, blocker.ID, StatusInterrupted, StatusFailed)
	pollStatus(t, ts, again.ID, StatusDone)
}

// TestSolveCacheKeysPostedBytes: the solution table keys on the bytes a
// request posted. One system posted as System.WriteJSON writes it and
// then compacted misses both times, with byte-identical solutions, and
// the compact bytes posted again hit.
func TestSolveCacheKeysPostedBytes(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	sys, err := model.ReadSystem(bytes.NewReader(fixtureJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	var indented, compact bytes.Buffer
	if err := sys.WriteJSON(&indented); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i, post := range []struct {
		body []byte
		want string
	}{{indented.Bytes(), "miss"}, {compact.Bytes(), "miss"}, {compact.Bytes(), "hit"}} {
		var doc rawJobDoc
		resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh", post.body, &doc)
		if resp.StatusCode != http.StatusOK || doc.Status != StatusDone {
			t.Fatalf("post %d = %d %q", i, resp.StatusCode, doc.Status)
		}
		if got := resp.Header.Get(cacheHeader); got != post.want {
			t.Errorf("post %d %s = %q, want %q", i, cacheHeader, got, post.want)
		}
		if first == nil {
			first = doc.Solution
		} else if !bytes.Equal(doc.Solution, first) {
			t.Errorf("post %d solution differs from the first", i)
		}
	}
}

// TestSolveMalformedBodiesWithCacheOn: concurrent identical bodies that
// fail to decode or validate each answer 400 bad_request without a
// cache annotation — a leader lands its flight with the error and a
// follower decodes before it is counted — so the table keeps nothing and
// counts no hit or coalesced request; a valid body then leads and hits.
func TestSolveMalformedBodiesWithCacheOn(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	valid := fixtureJSON(t)
	sys, err := model.ReadSystem(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	var noApps bytes.Buffer
	if err := (&model.System{Arch: sys.Arch}).WriteJSON(&noApps); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"no applications": noApps.Bytes(), "truncated": valid[:len(valid)/2]} {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/solve?strategy=mh", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("%s: post %d: %v", name, i, err)
					return
				}
				defer resp.Body.Close()
				var doc ErrorDoc
				if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusBadRequest || doc.Error.Code != ErrCodeBadRequest {
					t.Errorf("%s: post %d = %d %q (%v), want 400 %s", name, i, resp.StatusCode, doc.Error.Code, err, ErrCodeBadRequest)
				}
				if h := resp.Header.Get(cacheHeader); h != "" {
					t.Errorf("%s: post %d %s = %q, want no header", name, i, cacheHeader, h)
				}
			}()
		}
		wg.Wait()
	}
	for _, metric := range []string{"incdes_cache_entries", "incdes_cache_hits_total", "incdes_cache_inflight_dedup_total"} {
		if got := metricValue(t, ts, metric, "all"); got != 0 {
			t.Errorf("%s = %v after malformed bodies, want 0", metric, got)
		}
	}
	for _, want := range []string{"miss", "hit"} {
		if resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh", valid, nil); resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != want {
			t.Errorf("valid body = %d %s %q, want 200 %s", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader), want)
		}
	}
}
