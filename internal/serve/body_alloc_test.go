package serve

import (
	"bytes"
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
// returns the bytes allocated per request and the last status.
func allocsPerRequest(h http.Handler, n int, newReq func() *http.Request) (uint64, int) {
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
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n), w.status
}

// TestSolveHitBodyAlloc bounds what a cache hit on the fixture system
// (44,671 bytes) allocates. A hit decodes nothing, so reading the body
// is most of it: a buffer grown by doubling from 512 bytes takes about
// four times the body, one sized from Content-Length takes the body.
func TestSolveHitBodyAlloc(t *testing.T) {
	s := New(Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	defer s.Close()
	h := s.Handler()
	body := fixtureJSON(t)
	post := func() *http.Request {
		return httptest.NewRequest("POST", "/v1/solve?strategy=ah", bytes.NewReader(body))
	}
	if _, status := allocsPerRequest(h, 1, post); status != http.StatusOK {
		t.Fatalf("first solve = %d", status)
	}
	perHit, status := allocsPerRequest(h, 50, post)
	if status != http.StatusOK {
		t.Fatalf("hit = %d", status)
	}
	if perHit >= 160<<10 {
		t.Errorf("a cache hit allocates %d bytes, want under %d", perHit, 160<<10)
	}
	t.Logf("%d bytes per hit", perHit)
}

// TestSolveBodyClaimAlloc pins the presize cap: a request that claims a
// MaxBodyBytes body but sends 10 bytes is refused with 400 and reserves
// no more than the cap, not the claim.
func TestSolveBodyClaimAlloc(t *testing.T) {
	s := New(Config{Parallelism: 1, MaxConcurrent: 2, SolutionCacheSize: 8})
	defer s.Close()
	per, status := allocsPerRequest(s.Handler(), 5, func() *http.Request {
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
