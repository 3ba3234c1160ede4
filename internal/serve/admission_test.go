package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postError posts and decodes the unified error envelope, returning the
// response for header checks.
func postError(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, ErrorDoc) {
	t.Helper()
	var doc ErrorDoc
	resp := do(t, "POST", ts.URL+path, body, &doc)
	return resp, doc
}

// TestQueueFullEnvelopeAndRetryAfter pins the 429 contract across every
// job-submitting endpoint: the unified error envelope with code
// queue_full, and retry advice that agrees between the Retry-After
// header and the body's retry_after_s.
func TestQueueFullEnvelopeAndRetryAfter(t *testing.T) {
	s := New(Config{Parallelism: 1, MaxConcurrent: 1, QueueDepth: 1})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := fixtureJSON(t)
	sysJSON, apps, _ := sessionFixture(t)
	id := openSession(t, ts, sysJSON, "")

	// Occupy the single worker slot with an effectively endless solve,
	// then park one more job in the single queue position.
	var blocker JobStatusDoc
	if resp := do(t, "POST", ts.URL+"/v1/solve?strategy=sa&sa-iters=50000000&detach=1", body, &blocker); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker = %d", resp.StatusCode)
	}
	pollStatus(t, ts, blocker.ID, StatusRunning)
	var queued JobStatusDoc
	if resp := do(t, "POST", ts.URL+"/v1/solve?strategy=mh&detach=1", body, &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job = %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"solve", "/v1/solve?strategy=mh", body},
		{"solve detached", "/v1/solve?strategy=mh&detach=1", body},
		{"session commit", "/v1/sessions/" + id + "/commits?strategy=mh", apps[0]},
	} {
		resp, doc := postError(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s: status = %d, want 429", tc.name, resp.StatusCode)
		}
		if doc.Error.Code != ErrCodeQueueFull {
			t.Errorf("%s: code = %q, want %q", tc.name, doc.Error.Code, ErrCodeQueueFull)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After = %q, want 1", tc.name, got)
		}
		if doc.Error.RetryAfterS != 1 {
			t.Errorf("%s: retry_after_s = %v, want 1", tc.name, doc.Error.RetryAfterS)
		}
		if doc.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	// Tear the blockers down so the server drains cleanly.
	do(t, "DELETE", ts.URL+"/v1/solve/"+blocker.ID, nil, nil)
	do(t, "DELETE", ts.URL+"/v1/solve/"+queued.ID, nil, nil)
	pollStatus(t, ts, blocker.ID, StatusInterrupted, StatusFailed)
	pollStatus(t, ts, queued.ID, StatusInterrupted, StatusFailed, StatusDone)
}

// TestDrainingEnvelope pins shutdown behavior: after Close every
// job-submitting endpoint answers 503 with code draining and the same
// Retry-After math, and readiness flips.
func TestDrainingEnvelope(t *testing.T) {
	s := New(Config{Parallelism: 1, MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := fixtureJSON(t)
	sysJSON, apps, _ := sessionFixture(t)
	id := openSession(t, ts, sysJSON, "")

	s.Close()

	if resp := do(t, "GET", ts.URL+"/readyz", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after Close = %d, want 503", resp.StatusCode)
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"solve", "/v1/solve?strategy=mh", body},
		{"session commit", "/v1/sessions/" + id + "/commits?strategy=mh", apps[0]},
	} {
		resp, doc := postError(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503", tc.name, resp.StatusCode)
		}
		if doc.Error.Code != ErrCodeDraining {
			t.Errorf("%s: code = %q, want %q", tc.name, doc.Error.Code, ErrCodeDraining)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After = %q, want 1", tc.name, got)
		}
		if doc.Error.RetryAfterS != 1 {
			t.Errorf("%s: retry_after_s = %v, want 1", tc.name, doc.Error.RetryAfterS)
		}
	}
}

// TestSARestartsBound pins that sa-restarts above maxSARestarts is a 400
// bad_request on every path that accepts it — sync and detached solves
// with the solution cache on and off, and sync and detached session
// commits — instead of a job that allocates one chain per restart, and
// that the server keeps serving afterwards.
func TestSARestartsBound(t *testing.T) {
	_, ts := newCachingServer(t, Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	sysJSON, appJSON, _ := sessionFixture(t)
	id := openSession(t, ts, sysJSON, "")
	for _, restarts := range []int{maxSARestarts + 1, 1 << 50} {
		for _, path := range []string{
			"/v1/solve?strategy=sa",
			"/v1/solve?strategy=sa&detach=1",
			"/v1/solve?strategy=sa&cache=off",
			"/v1/solve?strategy=sa&cache=off&detach=1",
			"/v1/solve?strategy=portfolio",
			"/v1/sessions/" + id + "/commits?strategy=sa",
			"/v1/sessions/" + id + "/commits?strategy=sa&detach=1",
		} {
			body := fixtureJSON(t)
			if strings.Contains(path, "/commits") {
				body = appJSON[0]
			}
			url := fmt.Sprintf("%s%s&sa-restarts=%d", ts.URL, path, restarts)
			var doc ErrorDoc
			resp := do(t, "POST", url, body, &doc)
			if resp.StatusCode != http.StatusBadRequest || doc.Error.Code != ErrCodeBadRequest {
				t.Errorf("POST %s: status %d, code %q; want 400 %s", url, resp.StatusCode, doc.Error.Code, ErrCodeBadRequest)
			}
		}
	}
	// The bound itself is accepted, and the server still solves and commits.
	oneShot(t, ts, fixtureJSON(t), fmt.Sprintf("?strategy=sa&sa-iters=20&sa-restarts=%d", maxSARestarts))
	commitApp(t, ts, id, appJSON[0], "?strategy=ah")
}
