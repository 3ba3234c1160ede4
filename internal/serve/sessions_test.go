package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/session"
	"incdes/internal/tm"
)

// sessionFixture builds a base system plus follow-on applications, all
// with the same graph period so the derived future-load profile — and
// therefore the solve — is identical whether it is computed from the
// base system (session open) or the composed one (one-shot solve).
// Returns the base-system JSON, each application's JSON (the last one
// has a hyperperiod-doubling period, for illegal-commit tests), and the
// JSON of the system composed of the base plus the first k applications.
func sessionFixture(t testing.TB) (sysJSON []byte, appJSON [][]byte, composed func(k int) []byte) {
	t.Helper()
	b := model.NewBuilder()
	b.Node("N0")
	b.Node("N1")
	b.Node("N2")
	b.UniformBus(8, 1, 2)
	mk := func(name string, procs, period int) {
		g := b.App(name).Graph(name+"-g", tm.Time(period), tm.Time(period))
		var prev model.ProcID
		for i := 0; i < procs; i++ {
			p := g.UniformProc(fmt.Sprintf("%s-p%d", name, i), 3)
			if i > 0 {
				g.Msg(prev, p, 4)
			}
			prev = p
		}
	}
	mk("base", 3, 60)
	mk("app1", 2, 60)
	mk("app2", 3, 60)
	mk("app3", 2, 60)
	mk("slow", 2, 120)
	full := b.MustSystem()

	writeSys := func(sys *model.System) []byte {
		var buf bytes.Buffer
		if err := sys.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, app := range full.Apps[1:] {
		var buf bytes.Buffer
		if err := app.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		appJSON = append(appJSON, buf.Bytes())
	}
	sysJSON = writeSys(&model.System{Arch: full.Arch, Apps: full.Apps[:1]})
	composed = func(k int) []byte {
		return writeSys(&model.System{Arch: full.Arch, Apps: full.Apps[:1+k]})
	}
	return sysJSON, appJSON, composed
}

// do issues a request and decodes the JSON response into out (when
// non-nil), returning the response for status/header checks.
func do(t *testing.T, method, url string, body []byte, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: response is not JSON: %v\n%s", method, url, err, data)
		}
	}
	return resp
}

// openSession opens a session over the fixture base system and returns
// its ID.
func openSession(t *testing.T, ts *httptest.Server, sysJSON []byte, id string) string {
	t.Helper()
	url := ts.URL + "/v1/sessions"
	if id != "" {
		url += "?id=" + id
	}
	var doc SessionDoc
	resp := do(t, "POST", url, sysJSON, &doc)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sessions = %d", resp.StatusCode)
	}
	if want := "/v1/sessions/" + doc.ID; resp.Header.Get("Location") != want {
		t.Fatalf("Location = %q, want %q", resp.Header.Get("Location"), want)
	}
	return doc.ID
}

// commitApp posts one application to a session and returns the finished
// job document.
func commitApp(t *testing.T, ts *httptest.Server, id string, appJSON []byte, query string) JobStatusDoc {
	t.Helper()
	var doc JobStatusDoc
	resp := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/commits"+query, appJSON, &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST commits = %d (job %+v)", resp.StatusCode, doc)
	}
	if doc.Status != StatusDone || doc.Commit == nil || doc.Solution == nil {
		t.Fatalf("commit job = %+v", doc)
	}
	return doc
}

// oneShot solves a composed system in one shot and returns the job doc.
func oneShot(t *testing.T, ts *httptest.Server, sysJSON []byte, query string) JobStatusDoc {
	t.Helper()
	var doc JobStatusDoc
	resp := do(t, "POST", ts.URL+"/v1/solve"+query, sysJSON, &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/solve = %d", resp.StatusCode)
	}
	if doc.Status != StatusDone || doc.Solution == nil {
		t.Fatalf("solve job = %+v", doc)
	}
	return doc
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSessionCommitMatchesOneShotEndpoint pins the API-level acceptance
// contract: a commit through /v1/sessions produces the byte-identical
// solution document that POST /v1/solve produces for the equivalent
// composed system — for a single MH commit and for a three-commit chain
// (chained with AH, whose placements coincide with the one-shot
// freezing rule, so the final solves see identical frozen bases).
func TestSessionCommitMatchesOneShotEndpoint(t *testing.T) {
	sysJSON, apps, composed := sessionFixture(t)
	_, ts := newTestServer(t)

	id := openSession(t, ts, sysJSON, "")
	mh := commitApp(t, ts, id, apps[0], "?strategy=mh")
	direct := oneShot(t, ts, composed(1), "?strategy=mh")
	if !bytes.Equal(marshal(t, mh.Solution), marshal(t, direct.Solution)) {
		t.Errorf("MH commit diverges from one-shot solve:\nsession: %.200s\none-shot: %.200s",
			marshal(t, mh.Solution), marshal(t, direct.Solution))
	}
	if mh.Commit.Version != 1 || mh.Commit.Parent != 0 || mh.Commit.Branch != session.MainBranch {
		t.Errorf("commit info = %+v", mh.Commit)
	}

	id2 := openSession(t, ts, sysJSON, "")
	var last JobStatusDoc
	for _, app := range apps[:3] {
		last = commitApp(t, ts, id2, app, "?strategy=ah")
	}
	chain := oneShot(t, ts, composed(3), "?strategy=ah")
	if !bytes.Equal(marshal(t, last.Solution), marshal(t, chain.Solution)) {
		t.Errorf("AH chain diverges from one-shot solve of the composed system")
	}

	// The session document records the whole chain.
	var doc SessionDoc
	if resp := do(t, "GET", ts.URL+"/v1/sessions/"+id2, nil, &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET session = %d", resp.StatusCode)
	}
	if len(doc.Versions) != 4 || doc.Branches[session.MainBranch] != 3 {
		t.Errorf("session doc = %+v", doc)
	}
	for i, v := range doc.Versions {
		if v.ID != i || v.Fingerprint == "" {
			t.Errorf("version %d = %+v", i, v)
		}
	}
}

// TestSessionCommitsCheaperThanOneShot pins the incremental-design win
// the paper is about: committing K applications one at a time through a
// session costs strictly fewer design-space evaluations than K
// independent one-shot solves of the growing composed system, because
// the session never re-freezes (re-maps) the already-committed past.
func TestSessionCommitsCheaperThanOneShot(t *testing.T) {
	sysJSON, apps, composed := sessionFixture(t)
	_, ts := newTestServer(t)

	id := openSession(t, ts, sysJSON, "")
	var sessEvals, shotEvals int64
	for k, app := range apps[:3] {
		c := commitApp(t, ts, id, app, "?strategy=mh")
		if c.Stats == nil {
			t.Fatal("commit response missing stats")
		}
		sessEvals += c.Stats.Counters[obs.CtrEvaluations]
		s := oneShot(t, ts, composed(k+1), "?strategy=mh")
		if s.Stats == nil {
			t.Fatal("solve response missing stats")
		}
		shotEvals += s.Stats.Counters[obs.CtrEvaluations]
	}
	if sessEvals >= shotEvals {
		t.Errorf("session commits cost %d evaluations, one-shot solves %d; want strictly fewer",
			sessEvals, shotEvals)
	}
	t.Logf("evaluations: session=%d one-shot=%d", sessEvals, shotEvals)
}

// TestSessionDetachedCommitStreamsSSE runs a commit through the detached
// path: 202 + Location, live SSE on the shared /v1/solve/{id}/events
// stream, and commit metadata on the finished job document.
func TestSessionDetachedCommitStreamsSSE(t *testing.T) {
	sysJSON, apps, _ := sessionFixture(t)
	_, ts := newTestServer(t)
	id := openSession(t, ts, sysJSON, "")

	var queued JobStatusDoc
	resp := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/commits?strategy=mh&detach=1", apps[0], &queued)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("detached commit = %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc != "/v1/solve/"+queued.ID {
		t.Fatalf("Location = %q", loc)
	}

	// The SSE stream replays from the beginning and follows to done.
	sresp, err := http.Get(ts.URL + loc + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	events := readSSE(t, string(body))
	if len(events) == 0 || events[len(events)-1].kind != "done" {
		t.Fatalf("SSE stream = %d events, last %q", len(events), events[len(events)-1].kind)
	}

	deadline := time.Now().Add(5 * time.Second)
	var final JobStatusDoc
	for {
		if do(t, "GET", ts.URL+loc, nil, &final); final.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", final)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.Commit == nil || final.Commit.Session != id || final.Commit.Version != 1 {
		t.Fatalf("finished job commit info = %+v", final.Commit)
	}
}

// TestSessionBranchRollbackDiffEndpoints drives the what-if workflow
// over HTTP: branch from the root, commit to the branch, roll main
// back, diff the two heads.
func TestSessionBranchRollbackDiffEndpoints(t *testing.T) {
	sysJSON, apps, _ := sessionFixture(t)
	_, ts := newTestServer(t)
	id := openSession(t, ts, sysJSON, "")
	commitApp(t, ts, id, apps[0], "?strategy=ah") // v1 on main

	var br map[string]any
	if resp := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/branches?name=alt&from=0", nil, &br); resp.StatusCode != http.StatusCreated {
		t.Fatalf("branch = %d", resp.StatusCode)
	}
	alt := commitApp(t, ts, id, apps[1], "?strategy=ah&branch=alt") // v2 from v0
	if alt.Commit.Branch != "alt" || alt.Commit.Parent != 0 {
		t.Fatalf("branch commit = %+v", alt.Commit)
	}

	var rb map[string]any
	if resp := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/rollback?branch=main&to=0", nil, &rb); resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback = %d", resp.StatusCode)
	}

	var d session.Diff
	if resp := do(t, "GET", ts.URL+"/v1/sessions/"+id+"/diff?from=1&to=2", nil, &d); resp.StatusCode != http.StatusOK {
		t.Fatalf("diff = %d", resp.StatusCode)
	}
	if len(d.AppsAdded) != 1 || len(d.AppsRemoved) != 1 {
		t.Fatalf("diff = %+v", d)
	}

	// Delete, then the session is gone.
	if resp := do(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	var listing map[string][]string
	do(t, "GET", ts.URL+"/v1/sessions", nil, &listing)
	for _, got := range listing["sessions"] {
		if got == id {
			t.Fatal("deleted session still listed")
		}
	}
}

// TestSessionSurvivesRestart pins durability end to end: a server backed
// by a disk store is shut down and a new one over the same directory
// serves the same session, version tree included.
func TestSessionSurvivesRestart(t *testing.T) {
	sysJSON, apps, _ := sessionFixture(t)
	dir := t.TempDir()
	mkServer := func() (*Server, *httptest.Server) {
		store, err := session.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Parallelism: 1, MaxConcurrent: 2, SessionStore: store})
		return s, httptest.NewServer(s.Handler())
	}
	s1, ts1 := mkServer()
	id := openSession(t, ts1, sysJSON, "")
	want := commitApp(t, ts1, id, apps[0], "?strategy=mh")
	ts1.Close()
	s1.Close()

	s2, ts2 := mkServer()
	defer func() { ts2.Close(); s2.Close() }()
	var doc SessionDoc
	if resp := do(t, "GET", ts2.URL+"/v1/sessions/"+id, nil, &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET session after restart = %d", resp.StatusCode)
	}
	if len(doc.Versions) != 2 || doc.Versions[1].Fingerprint == "" {
		t.Fatalf("restarted session doc = %+v", doc)
	}
	// Committing on the restarted server continues the chain by replay.
	next := commitApp(t, ts2, id, apps[1], "?strategy=mh")
	if next.Commit.Version != 2 || next.Commit.Parent != 1 {
		t.Fatalf("post-restart commit = %+v", next.Commit)
	}
	if want.Commit.Version != 1 {
		t.Fatalf("pre-restart commit = %+v", want.Commit)
	}
}

// TestSessionDeleteUndecodable pins that DELETE removes a stored session
// without loading it, so a document that no longer decodes can still be
// deleted: the file is gone, the listing drops it, and a second DELETE
// is 404.
func TestSessionDeleteUndecodable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s9.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 99, "id": "s9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Parallelism: 1, MaxConcurrent: 1, SessionStore: store})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	if resp := do(t, "DELETE", ts.URL+"/v1/sessions/s9", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE of an undecodable session = %d, want 200", resp.StatusCode)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stored document after DELETE: %v, want it gone", err)
	}
	var listing map[string][]string
	do(t, "GET", ts.URL+"/v1/sessions", nil, &listing)
	if len(listing["sessions"]) != 0 {
		t.Errorf("sessions after DELETE = %v, want none", listing["sessions"])
	}
	var env ErrorDoc
	if resp := do(t, "DELETE", ts.URL+"/v1/sessions/s9", nil, &env); resp.StatusCode != http.StatusNotFound || env.Error.Code != ErrCodeNotFound {
		t.Errorf("second DELETE = %d %+v, want 404 %s", resp.StatusCode, env.Error, ErrCodeNotFound)
	}
}

// TestErrorEnvelope sweeps every distinct error path of the /v1 API and
// requires the unified envelope: {"error":{"code","message"}} with the
// documented code and HTTP status. (Synchronous solve/commit failures
// intentionally return a failed job document instead — the envelope is
// for transport-level errors.)
func TestErrorEnvelope(t *testing.T) {
	sysJSON, apps, _ := sessionFixture(t)
	_, _, overflowJSON := overflowFixture(t)
	unfitJSON, noAppsJSON := unfitFixture(t)
	_, ts := newTestServer(t)
	id := openSession(t, ts, sysJSON, "e1")
	commitApp(t, ts, id, apps[0], "?strategy=ah") // v1 on main
	if resp := do(t, "POST", ts.URL+"/v1/sessions/e1/branches?name=alt&from=0", nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("setup branch = %d", resp.StatusCode)
	}
	commitApp(t, ts, id, apps[1], "?strategy=ah&branch=alt") // v2 from v0

	cases := []struct {
		name       string
		method     string
		path       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"solve bad strategy", "POST", "/v1/solve?strategy=bogus", sysJSON, 400, ErrCodeBadRequest},
		{"solve bad body", "POST", "/v1/solve", []byte("{"), 400, ErrCodeBadRequest},
		{"solve overflowing hyperperiod", "POST", "/v1/solve", overflowJSON, 400, ErrCodeBadRequest},
		{"solve no applications", "POST", "/v1/solve", noAppsJSON, 400, ErrCodeBadRequest},
		{"solve too many slot occurrences", "POST", "/v1/solve", []byte(primePeriodsJSON), 400, ErrCodeBadRequest},
		{"solve unknown job", "GET", "/v1/solve/zzz", nil, 404, ErrCodeNotFound},
		{"cancel unknown job", "DELETE", "/v1/solve/zzz", nil, 404, ErrCodeNotFound},
		{"events unknown job", "GET", "/v1/solve/zzz/events", nil, 404, ErrCodeNotFound},
		{"session open bad body", "POST", "/v1/sessions", []byte("{"), 400, ErrCodeBadRequest},
		{"session open overflowing hyperperiod", "POST", "/v1/sessions", overflowJSON, 400, ErrCodeBadRequest},
		{"session open no applications", "POST", "/v1/sessions", noAppsJSON, 400, ErrCodeBadRequest},
		{"session open too many slot occurrences", "POST", "/v1/sessions", []byte(primePeriodsJSON), 400, ErrCodeBadRequest},
		{"session open base does not fit", "POST", "/v1/sessions", unfitJSON, 422, ErrCodeInvalidInput},
		{"session open duplicate id", "POST", "/v1/sessions?id=e1", sysJSON, 409, ErrCodeConflict},
		{"session unknown", "GET", "/v1/sessions/zzz", nil, 404, ErrCodeNotFound},
		{"session delete unknown", "DELETE", "/v1/sessions/zzz", nil, 404, ErrCodeNotFound},
		{"commit unknown session", "POST", "/v1/sessions/zzz/commits", apps[2], 404, ErrCodeNotFound},
		{"commit unknown branch", "POST", "/v1/sessions/e1/commits?branch=ghost", apps[2], 404, ErrCodeNotFound},
		{"commit bad strategy", "POST", "/v1/sessions/e1/commits?strategy=bogus", apps[2], 400, ErrCodeBadRequest},
		{"commit bad body", "POST", "/v1/sessions/e1/commits", []byte("{"), 400, ErrCodeBadRequest},
		{"branch missing name", "POST", "/v1/sessions/e1/branches", nil, 400, ErrCodeBadRequest},
		{"branch duplicate", "POST", "/v1/sessions/e1/branches?name=alt&from=0", nil, 409, ErrCodeConflict},
		{"branch bad from", "POST", "/v1/sessions/e1/branches?name=x&from=abc", nil, 400, ErrCodeBadRequest},
		{"branch unknown version", "POST", "/v1/sessions/e1/branches?name=y&from=99", nil, 404, ErrCodeNotFound},
		{"rollback missing to", "POST", "/v1/sessions/e1/rollback", nil, 400, ErrCodeBadRequest},
		{"rollback bad to", "POST", "/v1/sessions/e1/rollback?to=abc", nil, 400, ErrCodeBadRequest},
		{"rollback not ancestor", "POST", "/v1/sessions/e1/rollback?branch=main&to=2", nil, 422, ErrCodeIllegalCommit},
		{"rollback unknown branch", "POST", "/v1/sessions/e1/rollback?branch=ghost&to=0", nil, 404, ErrCodeNotFound},
		{"diff missing from", "GET", "/v1/sessions/e1/diff?to=1", nil, 400, ErrCodeBadRequest},
		{"diff bad to", "GET", "/v1/sessions/e1/diff?from=0&to=abc", nil, 400, ErrCodeBadRequest},
		{"diff unknown version", "GET", "/v1/sessions/e1/diff?from=0&to=99", nil, 404, ErrCodeNotFound},
		{"unversioned solve", "POST", "/solve", sysJSON, 404, ErrCodeNotFound},
		{"unversioned sessions", "POST", "/sessions", sysJSON, 404, ErrCodeNotFound},
		{"sessions wrong method", "PUT", "/v1/sessions", nil, 405, ErrCodeBadRequest},
		{"commits wrong method", "GET", "/v1/sessions/e1/commits", nil, 405, ErrCodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env ErrorDoc
			resp := do(t, tc.method, ts.URL+tc.path, tc.body, &env)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("error code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Error("error message empty")
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			if tc.wantStatus == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
				t.Error("405 without an Allow header")
			}
		})
	}

	// A synchronous commit that fails solver-side (hyperperiod change)
	// returns the failed job document, not the envelope.
	var jobDoc JobStatusDoc
	resp := do(t, "POST", ts.URL+"/v1/sessions/e1/commits?strategy=ah", apps[3], &jobDoc)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("illegal commit = %d", resp.StatusCode)
	}
	if jobDoc.Status != StatusFailed || !strings.Contains(jobDoc.Error, "hyperperiod") {
		t.Fatalf("illegal commit job = %+v", jobDoc)
	}
}

// primePeriodsJSON is a system whose hyperperiod fits tm.Time but spans
// 2·10^12 TDMA slot occurrences: two nodes on a 20-unit round and two
// one-process applications with the prime periods 999,983 and 1,000,003.
const primePeriodsJSON = `{"arch":{"nodes":[{"id":0},{"id":1}],"bus":{"slot_order":[0,1],"slot_bytes":[8,8],"byte_time":1,"slot_overhead":2}},` +
	`"apps":[{"id":0,"graphs":[{"id":0,"period":999983,"deadline":999983,"procs":[{"id":0,"wcet":{"0":3,"1":3}}],"msgs":[]}]},` +
	`{"id":1,"graphs":[{"id":1,"period":1000003,"deadline":1000003,"procs":[{"id":1,"wcet":{"0":3,"1":3}}],"msgs":[]}]}]}`

// TestOccurrenceBoundCommitFails: a commit that keeps the hyperperiod but
// takes the composite past the bound on process and message occurrences
// fails its legality check. The base is one process of period 655,360 on
// a 20-unit round; the application is a two-process chain of period 20,
// 32,768 occurrences of three jobs.
func TestOccurrenceBoundCommitFails(t *testing.T) {
	b := model.NewBuilder()
	b.Node("N0")
	b.Node("N1")
	b.UniformBus(8, 1, 2)
	b.App("base").Graph("base-g", 655360, 655360).UniformProc("base-p", 3)
	var base bytes.Buffer
	if err := b.MustSystem().WriteJSON(&base); err != nil {
		t.Fatal(err)
	}
	wcet := map[model.NodeID]tm.Time{0: 3, 1: 3}
	app := &model.Application{ID: 1, Name: "fast", Graphs: []*model.Graph{{
		ID: 1, Name: "fast-g", Period: 20, Deadline: 20,
		Procs: []*model.Process{{ID: 1, Name: "fast-p1", WCET: wcet}, {ID: 2, Name: "fast-p2", WCET: wcet}},
		Msgs:  []*model.Message{{ID: 0, Name: "fast-m", Src: 1, Dst: 2, Bytes: 4}},
	}}}
	var appJSON bytes.Buffer
	if err := app.WriteJSON(&appJSON); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t)
	id := openSession(t, ts, base.Bytes(), "")
	var doc JobStatusDoc
	resp := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/commits?strategy=ah", appJSON.Bytes(), &doc)
	if resp.StatusCode != http.StatusUnprocessableEntity || doc.Status != StatusFailed ||
		!strings.Contains(doc.Error, "illegal commit") || !strings.Contains(doc.Error, "occurrences") {
		t.Fatalf("commit past the occurrence bound = %d %q %q", resp.StatusCode, doc.Status, doc.Error)
	}
}

// unfitFixture returns a system whose first application (three
// processes of WCET 80, period and deadline 100, on two nodes) cannot be
// scheduled, followed by a small current application; and the same
// architecture with no application at all.
func unfitFixture(t *testing.T) (unfitJSON, noAppsJSON []byte) {
	t.Helper()
	b := model.NewBuilder()
	b.Node("N0")
	b.Node("N1")
	b.UniformBus(8, 1, 2)
	g := b.App("unfit").Graph("unfit-g", 100, 100)
	for _, name := range []string{"p1", "p2", "p3"} {
		g.UniformProc(name, 80)
	}
	b.App("current").Graph("current-g", 100, 100).UniformProc("current-p", 3)
	sys := b.MustSystem()
	enc := func(s *model.System) []byte {
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return enc(sys), enc(&model.System{Arch: sys.Arch})
}

// TestSolveUnfitFrozenAppsFails: a solve whose frozen applications do
// not fit builds its problem inside the job, so it is a failed job (422
// with the job document when synchronous), with the solution cache off
// and on; a failed solve keeps nothing, so the next identical request
// leads a new flight.
func TestSolveUnfitFrozenAppsFails(t *testing.T) {
	unfitJSON, _ := unfitFixture(t)
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 1, SolutionCacheSize: 8})
	for _, tc := range []struct{ query, cache string }{
		{"?strategy=mh&cache=off", ""},
		{"?strategy=mh", "miss"},
		{"?strategy=mh", "miss"},
	} {
		var doc JobStatusDoc
		resp := do(t, "POST", ts.URL+"/v1/solve"+tc.query, unfitJSON, &doc)
		if resp.StatusCode != http.StatusUnprocessableEntity || doc.Status != StatusFailed || !strings.Contains(doc.Error, "building problem") {
			t.Errorf("POST %s = %d %+v, want 422 and a failed job", tc.query, resp.StatusCode, doc)
		}
		if got := resp.Header.Get(cacheHeader); got != tc.cache {
			t.Errorf("POST %s %s = %q, want %q", tc.query, cacheHeader, got, tc.cache)
		}
	}
}

// overflowFixture returns a base system of period 1000, an application
// of period 4,611,686,018,427,391 (coprime to 1000, so composed with the
// base the hyperperiod exceeds tm.Infinity), and their composed system.
func overflowFixture(t *testing.T) (baseJSON, appJSON, composedJSON []byte) {
	t.Helper()
	b := model.NewBuilder()
	b.Node("N0")
	b.Node("N1")
	b.UniformBus(8, 1, 2)
	b.App("base").Graph("base-g", 1000, 1000).UniformProc("base-p", 3)
	base := b.MustSystem()
	const period = tm.Time(4611686018427391)
	app := &model.Application{ID: 1, Name: "huge", Graphs: []*model.Graph{{
		ID: 1, Name: "huge-g", Period: period, Deadline: period,
		Procs: []*model.Process{{ID: 1, Name: "huge-p", WCET: map[model.NodeID]tm.Time{0: 3, 1: 3}}},
	}}}
	enc := func(v interface{ WriteJSON(io.Writer) error }) []byte {
		var buf bytes.Buffer
		if err := v.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	composed := &model.System{Arch: base.Arch, Apps: append(base.Apps, app)}
	return enc(base), enc(app), enc(composed)
}

// TestOverflowingHyperperiodCommitFails: committing an application that
// takes the session's hyperperiod beyond tm.Infinity fails its legality
// check, with 422 when synchronous and a failed job when detached, and
// the server keeps answering afterwards.
func TestOverflowingHyperperiodCommitFails(t *testing.T) {
	baseJSON, appJSON, _ := overflowFixture(t)
	_, ts := newTestServer(t)
	id := openSession(t, ts, baseJSON, "")
	commits := ts.URL + "/v1/sessions/" + id + "/commits?strategy=ah"
	var queued JobStatusDoc
	resp := do(t, "POST", commits+"&detach=1", appJSON, &queued)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("detached commit = %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	deadline := time.Now().Add(5 * time.Second)
	var final JobStatusDoc
	for {
		if do(t, "GET", ts.URL+loc, nil, &final); final.Status == StatusFailed {
			break
		}
		if final.Status == StatusDone || time.Now().After(deadline) {
			t.Fatalf("detached commit job = %+v, want failed", final)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(final.Error, session.ErrIllegalCommit.Error()) {
		t.Errorf("detached commit error = %q, want an illegal commit", final.Error)
	}

	var sync JobStatusDoc
	resp = do(t, "POST", commits, appJSON, &sync)
	if resp.StatusCode != http.StatusUnprocessableEntity || sync.Status != StatusFailed ||
		!strings.Contains(sync.Error, session.ErrIllegalCommit.Error()) {
		t.Fatalf("synchronous commit = %d %+v, want 422 and a failed illegal commit", resp.StatusCode, sync)
	}

	// The server still answers, and the session is still at its root.
	var doc SessionDoc
	if resp := do(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET session after the failed commits = %d", resp.StatusCode)
	}
	if len(doc.Versions) != 1 {
		t.Errorf("session has %d versions after two failed commits, want 1", len(doc.Versions))
	}
}
