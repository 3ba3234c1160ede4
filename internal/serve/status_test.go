package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"incdes/internal/core"
	"incdes/internal/model"
	"incdes/internal/obs"
)

// directSolutionJSON solves sys with strat through core.Solve, outside
// the server, and encodes its solution document as json.Marshal does.
func directSolutionJSON(t testing.TB, sys *model.System, strat core.Strategy) []byte {
	t.Helper()
	p, err := BuildProblem(sys, "")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(context.Background(), p, core.Options{Strategy: strat, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := NewSolutionDoc(sol)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sampleSolution is the solution document of an AH solve of oneBusSeed.
func sampleSolution(t testing.TB) *SolutionDoc {
	t.Helper()
	var doc SolutionDoc
	if err := json.Unmarshal(directSolutionJSON(t, oneBusSeed(), core.AH), &doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}

var jobStatuses = []string{StatusQueued, StatusRunning, StatusDone, StatusInterrupted, StatusFailed}

// Presence bits of statusShape: which optional parts a document carries.
const (
	withCommit = 1 << iota
	withStats
	withRequestID
	withSpans
	withSolution
	allParts = 1<<iota - 1
)

// statusShape builds one status document with the given id, error and
// worker strings, which the commit, stats, request ID and span attributes
// repeat when present, and the optional parts that the bits of parts
// choose.
func statusShape(sol *SolutionDoc, status, id, errMsg, worker string, parts int) *JobStatusDoc {
	doc := &JobStatusDoc{ID: id, Status: status, Strategy: "MH", Error: errMsg, Worker: worker}
	if parts&withCommit != 0 {
		doc.Commit = &CommitInfo{Session: id, Branch: worker, Version: 3, Parent: 2, BaselineReused: true}
	}
	if parts&withStats != 0 {
		doc.Stats = &obs.Snapshot{
			SchemaVersion: obs.SnapshotSchemaVersion,
			Counters:      map[string]int64{obs.CtrEvaluations: 41, errMsg: 1},
			Gauges:        map[string]int64{worker: -2},
			Histograms: map[string]obs.HistogramSnapshot{
				obs.HstSolveSeconds: {Bounds: []float64{0.001, 0.01}, Counts: []int64{1, 0, 2}, Sum: 0.0425, Count: 3},
			},
		}
	}
	if parts&withRequestID != 0 {
		doc.RequestID = id
	}
	if parts&withSpans != 0 {
		doc.Spans = []obs.SpanSnapshot{
			{ID: "s1", Name: "http.request", StartNS: 17, DurationNS: 900, Attrs: map[string]string{"route": "POST /v1/solve", "error": errMsg, worker: id}},
			{ID: "s2", Parent: "s1", Name: "cache.lookup", Seq: 1, StartNS: 20, DurationNS: -1},
		}
	}
	if parts&withSolution != 0 {
		doc.Solution = sol
	}
	return doc
}

// checkWriteStatus requires writeStatus, handed the solution's and the
// stats' encodings, to write what json.NewEncoder(w).Encode(doc) writes,
// byte for byte, with writeJSON's status code and Content-Type.
func checkWriteStatus(t *testing.T, doc *JobStatusDoc) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(doc); err != nil {
		t.Fatal(err)
	}
	var docJSON, statsJSON []byte
	var err error
	if doc.Solution != nil {
		if docJSON, err = json.Marshal(doc.Solution); err != nil {
			t.Fatal(err)
		}
	}
	if doc.Stats != nil {
		if statsJSON, err = json.Marshal(doc.Stats); err != nil {
			t.Fatal(err)
		}
	}
	got := httptest.NewRecorder()
	writeStatus(got, http.StatusUnprocessableEntity, doc, docJSON, statsJSON)
	if got.Code != http.StatusUnprocessableEntity || got.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q; want 422, application/json", got.Code, got.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Bytes()) {
		t.Fatalf("writeStatus differs from the encoder:\ngot:  %q\nwant: %q", got.Body.Bytes(), want.Bytes())
	}
}

// statusStrings are the id, error and worker strings of the table: empty,
// plain, HTML-escaped characters, the line and paragraph separators,
// invalid UTF-8 and control characters.
var statusStrings = []string{"", "j7", "<b>&amp;</b>", "line\u2028para\u2029", "bad\xff\xc3(utf8", "quote\"back\\slash\n\t\x00"}

// TestWriteStatusMatchesEncoder pins writeStatus to the encoder over
// every status, every combination of the optional parts and strings
// that the encoder escapes, and its two envelope halves to JobStatusDoc's
// fields on either side of Solution and Stats.
func TestWriteStatusMatchesEncoder(t *testing.T) {
	tags := func(typ reflect.Type) (out []string) {
		for i := range typ.NumField() {
			out = append(out, typ.Field(i).Tag.Get("json"))
		}
		return out
	}
	halves := append(append(tags(reflect.TypeFor[statusHead]()), "solution,omitempty", "stats,omitempty"), tags(reflect.TypeFor[statusTail]())...)
	if want := tags(reflect.TypeFor[JobStatusDoc]()); !reflect.DeepEqual(halves, want) {
		t.Fatalf("statusHead, solution, stats and statusTail tag %q; JobStatusDoc tags %q", halves, want)
	}

	sol := sampleSolution(t)
	for _, status := range jobStatuses {
		for parts := 0; parts <= allParts; parts++ {
			for _, s := range statusStrings {
				checkWriteStatus(t, statusShape(sol, status, s, s, s, parts))
			}
			checkWriteStatus(t, statusShape(sol, status, statusStrings[2], statusStrings[3], statusStrings[4], parts))
		}
	}
}

// FuzzStatusDoc drives writeStatus with arbitrary id, error and worker
// strings, any status and any combination of the optional parts, against
// the encoder.
func FuzzStatusDoc(f *testing.F) {
	for status := range jobStatuses {
		for _, s := range statusStrings {
			f.Add(s, s, s, uint8(status), uint8(allParts))
		}
	}
	f.Add(statusStrings[2], statusStrings[3], statusStrings[4], uint8(2), uint8(withSolution))
	f.Add("j1", "", "", uint8(0), uint8(0))
	sol := sampleSolution(f)
	f.Fuzz(func(t *testing.T, id, errMsg, worker string, status, parts uint8) {
		checkWriteStatus(t, statusShape(sol, jobStatuses[int(status)%len(jobStatuses)], id, errMsg, worker, int(parts)&allParts))
	})
}

// nanDispatcher answers every solve with a document that does not
// encode: its objective is NaN.
type nanDispatcher struct{}

func (nanDispatcher) CanDispatch(SolveParams) bool { return true }

func (nanDispatcher) Dispatch(context.Context, *DispatchRequest) (*DispatchResult, error) {
	return &DispatchResult{Doc: &SolutionDoc{Objective: math.NaN()}, Worker: "w1"}, nil
}

// TestUnencodableDocuments: a solution document that does not encode
// fails its job, and its flight is not kept, so the same request leads
// a new one; a job's stats that do not encode are left out of its status
// document, which still carries its solution.
func TestUnencodableDocuments(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, SolutionCacheSize: 8, Dispatcher: nanDispatcher{}})
	for i := 0; i < 2; i++ {
		var doc JobStatusDoc
		resp := do(t, "POST", ts.URL+"/v1/solve", fixtureJSON(t), &doc)
		if resp.StatusCode != http.StatusUnprocessableEntity || resp.Header.Get(cacheHeader) != "miss" ||
			doc.Status != StatusFailed || !strings.Contains(doc.Error, "encoding solution") {
			t.Fatalf("solve %d = %d, %s %q, %q %q; want 422, miss, failed encoding the solution", i, resp.StatusCode,
				cacheHeader, resp.Header.Get(cacheHeader), doc.Status, doc.Error)
		}
	}

	s := New(Config{Parallelism: 1})
	defer s.Close()
	j := s.register("MH", nil)
	j.reg.Histogram(obs.HstSolveSeconds).Observe(math.Inf(1))
	j.finish(result{solved: &solvedDoc{json: []byte(`{}`)}}, nil)
	doc, docJSON, statsJSON := s.statusDoc(j)
	got := httptest.NewRecorder()
	writeStatus(got, http.StatusOK, doc, docJSON, statsJSON)
	var members map[string]json.RawMessage
	if err := json.Unmarshal(got.Body.Bytes(), &members); err != nil || members["stats"] != nil || string(members["solution"]) != "{}" {
		t.Errorf("a job whose stats do not encode answers %q (%v); want its solution and no stats", got.Body, err)
	}
}

// awaitMetric polls /metrics until the sample reaches want.
func awaitMetric(t *testing.T, ts *httptest.Server, metric string, want float64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, ts, metric, "all") < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s stayed below %v", metric, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSolveSolutionBytesOnEveryPath: every response that carries a
// solution carries json.Marshal of the solution document of a direct
// core.Solve — a synchronous leader, a synchronous and a detached
// in-flight follower, hits, a cache=off solve, a synchronous and a
// detached session commit (against the one-shot solve of the composed
// system), and GET /v1/solve/{id} on each of those jobs — and every
// finished job holds exactly that one encoding: every job of the flight
// shares the flight's, and every other job holds its own.
func TestSolveSolutionBytesOnEveryPath(t *testing.T) {
	s, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 1, QueueDepth: 8, SolutionCacheSize: 8})
	body := fixtureJSON(t)
	sys, err := model.ReadSystem(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := directSolutionJSON(t, sys, core.MH)

	// A blocker in the only worker slot holds the leader back until both
	// followers have joined its flight.
	var blocker JobStatusDoc
	do(t, "POST", ts.URL+"/v1/solve?strategy=sa&sa-iters=50000000&detach=1", body, &blocker)
	pollStatus(t, ts, blocker.ID, StatusRunning)
	const query = "/v1/solve?strategy=mh"
	type answer struct {
		cache string
		doc   rawJobDoc
	}
	var wg sync.WaitGroup
	post := func(q string, out *answer) {
		defer wg.Done()
		resp, err := http.Post(ts.URL+q, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		out.cache = resp.Header.Get(cacheHeader)
		raw, err := io.ReadAll(resp.Body)
		if err == nil {
			err = json.Unmarshal(raw, &out.doc)
		}
		if err != nil {
			t.Errorf("POST %s: %v", q, err)
		}
	}
	var leader, follower answer
	wg.Add(1)
	go post(query, &leader)
	awaitMetric(t, ts, "incdes_cache_misses_total", 1)
	wg.Add(1)
	go post(query, &follower)
	awaitMetric(t, ts, "incdes_cache_inflight_dedup_total", 1)
	var detached JobStatusDoc
	if resp := do(t, "POST", ts.URL+query+"&detach=1", body, &detached); resp.StatusCode != http.StatusAccepted || resp.Header.Get(cacheHeader) != "inflight" {
		t.Fatalf("detached follower = %d, %s %q; want 202 inflight", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
	}
	do(t, "DELETE", ts.URL+"/v1/solve/"+blocker.ID, nil, nil)
	wg.Wait()

	check := func(what string, got rawJobDoc) {
		t.Helper()
		if got.Status != StatusDone || !bytes.Equal(got.Solution, want) {
			t.Errorf("%s: status %q, solution %.80s; want done and the direct solve's %.80s", what, got.Status, got.Solution, want)
		}
	}
	if leader.cache != "miss" || follower.cache != "inflight" {
		t.Errorf("%s: leader %q, follower %q; want miss, inflight", cacheHeader, leader.cache, follower.cache)
	}
	check("the leader", leader.doc)
	check("the follower", follower.doc)
	pollStatus(t, ts, detached.ID, StatusDone)
	flight := []string{leader.doc.ID, follower.doc.ID, detached.ID}
	for i := 0; i < 3; i++ {
		var hit rawJobDoc
		if resp := do(t, "POST", ts.URL+query, body, &hit); resp.Header.Get(cacheHeader) != "hit" {
			t.Errorf("hit %d: %s %q", i, cacheHeader, resp.Header.Get(cacheHeader))
		}
		check("a hit", hit)
		flight = append(flight, hit.ID)
	}
	var uncached rawJobDoc
	do(t, "POST", ts.URL+query+"&cache=off", body, &uncached)
	check("the cache=off solve", uncached)
	for _, id := range append(flight, uncached.ID) {
		var got rawJobDoc
		do(t, "GET", ts.URL+"/v1/solve/"+id, nil, &got)
		check("GET /v1/solve/"+id, got)
	}

	// A commit of the fixture's first application is the one-shot solve
	// of the base composed with it, synchronous or detached.
	sysJSON, apps, composed := sessionFixture(t)
	compSys, err := model.ReadSystem(bytes.NewReader(composed(1)))
	if err != nil {
		t.Fatal(err)
	}
	wantCommit := directSolutionJSON(t, compSys, core.MH)
	var commit rawJobDoc
	if resp := do(t, "POST", ts.URL+"/v1/sessions/"+openSession(t, ts, sysJSON, "")+"/commits?strategy=mh", apps[0], &commit); resp.StatusCode != http.StatusOK {
		t.Fatalf("commit = %d", resp.StatusCode)
	}
	var detachedCommit JobStatusDoc
	if resp := do(t, "POST", ts.URL+"/v1/sessions/"+openSession(t, ts, sysJSON, "")+"/commits?strategy=mh&detach=1", apps[0], &detachedCommit); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("detached commit = %d, want 202", resp.StatusCode)
	}
	pollStatus(t, ts, detachedCommit.ID, StatusDone)
	checkCommit := func(what string, got rawJobDoc) {
		t.Helper()
		if got.Status != StatusDone || !bytes.Equal(got.Solution, wantCommit) {
			t.Errorf("%s: status %q, solution %.80s; want done and the composed one-shot solve's %.80s", what, got.Status, got.Solution, wantCommit)
		}
	}
	checkCommit("the synchronous commit", commit)
	commits := []string{commit.ID, detachedCommit.ID}
	for _, id := range commits {
		var got rawJobDoc
		do(t, "GET", ts.URL+"/v1/solve/"+id, nil, &got)
		checkCommit("GET /v1/solve/"+id, got)
	}

	shared := s.SolutionJSON(leader.doc.ID)
	if !bytes.Equal(shared, want) {
		t.Fatalf("the flight's encoding %.80s, want %.80s", shared, want)
	}
	for _, id := range flight {
		if got := s.SolutionJSON(id); len(got) != len(shared) || &got[0] != &shared[0] {
			t.Errorf("job %s writes an encoding of its own, not its flight's", id)
		}
	}
	if got := s.SolutionJSON(uncached.ID); !bytes.Equal(got, want) {
		t.Errorf("the cache=off job's encoding %.80s, want the direct solve's %.80s", got, want)
	}
	for _, id := range commits {
		if got := s.SolutionJSON(id); !bytes.Equal(got, wantCommit) {
			t.Errorf("commit job %s's encoding %.80s, want the composed one-shot solve's %.80s", id, got, wantCommit)
		}
	}
}
