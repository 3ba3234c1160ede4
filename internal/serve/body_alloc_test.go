package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so an allocation measurement counts the handler's work and not a
// recorder's copy of the response.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// allocsPerRequest serves the request that newReq builds n times and
// returns the bytes and the heap objects allocated per request and the
// last status.
func allocsPerRequest(h http.Handler, n int, newReq func() *http.Request) (allocated, objects uint64, status int) {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = newReq()
	}
	w := &discardWriter{h: http.Header{}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		clear(w.h)
		w.status = http.StatusOK
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n), (after.Mallocs - before.Mallocs) / uint64(n), w.status
}

// allocsPerHit posts the fixture system (44,671 bytes) once, the miss
// that fills the solution table, then 50 times more, and returns the
// bytes and the heap objects each of those cache hits allocates.
func allocsPerHit(t *testing.T) (allocated, objects uint64) {
	t.Helper()
	s := New(Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	defer s.Close()
	h := s.Handler()
	body := fixtureJSON(t)
	post := func() *http.Request {
		return httptest.NewRequest("POST", "/v1/solve?strategy=ah", bytes.NewReader(body))
	}
	if _, _, status := allocsPerRequest(h, 1, post); status != http.StatusOK {
		t.Fatalf("first solve = %d", status)
	}
	allocated, objects, status := allocsPerRequest(h, 50, post)
	if status != http.StatusOK {
		t.Fatalf("hit = %d", status)
	}
	return allocated, objects
}

// TestSolveHitBodyAlloc bounds what a cache hit allocates. A hit decodes
// nothing, so reading the body is most of it: a buffer grown by doubling
// from 512 bytes takes about four times the body, one sized from
// Content-Length takes the body.
func TestSolveHitBodyAlloc(t *testing.T) {
	perHit, _ := allocsPerHit(t)
	if perHit >= 160<<10 {
		t.Errorf("a cache hit allocates %d bytes, want under %d", perHit, 160<<10)
	}
	t.Logf("%d bytes per hit", perHit)
}

// TestSolveHitAllocs bounds the heap objects a cache hit allocates. A hit
// writes its flight's stored encoding of the solution and encodes only
// the envelope around it (96 objects); encoding the solution again for
// each hit makes 322, which the bound rejects.
func TestSolveHitAllocs(t *testing.T) {
	const maxObjects = 150
	_, perHit := allocsPerHit(t)
	if perHit > maxObjects {
		t.Errorf("a cache hit allocates %d objects, want at most %d", perHit, maxObjects)
	}
	t.Logf("%d objects per hit", perHit)
}

// TestJobStatusPollAllocs bounds the heap objects a poll of a finished
// job allocates. A cache=off job holds its solution encoded once, as a
// flight's job does, so GET /v1/solve/{id} encodes only the envelope
// around it (72 objects); encoding the solution again for each poll
// makes 298, which the bound rejects.
func TestJobStatusPollAllocs(t *testing.T) {
	const maxObjects = 150
	s := New(Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	defer s.Close()
	h := s.Handler()
	solved := httptest.NewRecorder()
	h.ServeHTTP(solved, httptest.NewRequest("POST", "/v1/solve?strategy=ah&cache=off", bytes.NewReader(fixtureJSON(t))))
	var doc JobStatusDoc
	if err := json.Unmarshal(solved.Body.Bytes(), &doc); err != nil || solved.Code != http.StatusOK || doc.Status != StatusDone {
		t.Fatalf("cache=off solve = %d %q (%v)", solved.Code, doc.Status, err)
	}
	_, perPoll, status := allocsPerRequest(h, 50, func() *http.Request {
		return httptest.NewRequest("GET", "/v1/solve/"+doc.ID, nil)
	})
	if status != http.StatusOK {
		t.Fatalf("poll = %d", status)
	}
	if perPoll > maxObjects {
		t.Errorf("a poll of a finished cache=off job allocates %d objects, want at most %d", perPoll, maxObjects)
	}
	t.Logf("%d objects per poll", perPoll)
}

// TestSolveBodyClaimAlloc pins the presize cap: a request that claims a
// MaxBodyBytes body but sends 10 bytes is refused with 400 and reserves
// no more than the cap, not the claim.
func TestSolveBodyClaimAlloc(t *testing.T) {
	s := New(Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	defer s.Close()
	per, _, status := allocsPerRequest(s.Handler(), 5, func() *http.Request {
		r := httptest.NewRequest("POST", "/v1/solve?strategy=ah", bytes.NewReader([]byte(`{"nodes":[`)))
		r.ContentLength = MaxBodyBytes
		return r
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	if per >= 2<<20 {
		t.Errorf("a 10-byte body claiming %d bytes allocates %d bytes, want under %d", int64(MaxBodyBytes), per, 2<<20)
	}
}
