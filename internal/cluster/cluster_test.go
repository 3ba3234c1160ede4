package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"incdes/internal/core"
	"incdes/internal/serve"
)

// wireUnits plans a request the way Dispatch does and maps every unit
// onto its worker-side /v1/solve parameters.
func wireUnits(t *testing.T, p serve.SolveParams) []serve.SolveParams {
	t.Helper()
	strat, err := p.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var out []serve.SolveParams
	for _, u := range core.Plan(strat).Units {
		out = append(out, unitParams(p, u))
	}
	return out
}

// TestPlanUnits pins the unit → /v1/solve mapping the coordinator owns:
// whole units name their strategy, SA chain k runs as
// sa-restarts=1&sa-chain-offset=k. The split itself is core.Plan's.
func TestPlanUnits(t *testing.T) {
	chain := func(k int) serve.SolveParams {
		return serve.SolveParams{Strategy: "sa", SAIters: 100, SARestarts: 1, SASeed: 7, SAChainOffset: k}
	}
	cases := []struct {
		name   string
		params serve.SolveParams
		want   []serve.SolveParams
	}{
		{"mh-whole", serve.SolveParams{Strategy: "mh", Timeout: 2 * time.Second},
			[]serve.SolveParams{{Strategy: "mh", Timeout: 2 * time.Second}}},
		{"sa-one-unit-per-chain", serve.SolveParams{Strategy: "sa", SARestarts: 3, SAIters: 100, SASeed: 7},
			[]serve.SolveParams{chain(0), chain(1), chain(2)}},
		{"sa-default-restarts", serve.SolveParams{Strategy: "sa"},
			[]serve.SolveParams{{Strategy: "sa", SARestarts: 1}}},
		{"portfolio-lanes-plus-chains", serve.SolveParams{Strategy: "portfolio", SARestarts: 2, SAIters: 100, SASeed: 7},
			[]serve.SolveParams{{Strategy: "ah"}, {Strategy: "mh"}, chain(0), chain(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := wireUnits(t, tc.params); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("unit params =\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}
}

// TestHandleRegister pins worker self-registration: only absolute
// http(s) URLs are admitted, and every rejection is the JSON error
// envelope.
func TestHandleRegister(t *testing.T) {
	c := NewCoordinator(Options{ProbeInterval: time.Hour})
	defer c.Close()
	h := c.Handler(http.NotFoundHandler())
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"not json", "{", http.StatusBadRequest},
		{"not a url", `{"url":"not a url"}`, http.StatusBadRequest},
		{"ftp scheme", `{"url":"ftp://x"}`, http.StatusBadRequest},
		{"valid", `{"url":"http://127.0.0.1:8181/"}`, http.StatusOK},
	}
	for _, tc := range cases {
		before := c.reg.healthyCount()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RegisterPath, strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, rec.Code, tc.status)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type = %q", tc.name, ct)
		}
		after := c.reg.healthyCount()
		if tc.status != http.StatusOK {
			var env serve.ErrorDoc
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != serve.ErrCodeBadRequest {
				t.Errorf("%s: body %q is not a bad_request envelope", tc.name, rec.Body)
			}
			if after != before {
				t.Errorf("%s: healthy workers %d -> %d on a rejected registration", tc.name, before, after)
			}
		} else if after != before+1 {
			t.Errorf("%s: healthy workers %d -> %d, want one more", tc.name, before, after)
		}
	}
}

// unclosedString is a request body that opens a JSON string after
// prefix and never closes it, so a decoder keeps reading until the body
// or its bound ends. The bytes are generated as they are read; n counts
// them.
type unclosedString struct {
	prefix  string
	size, n int64
}

var filler = bytes.Repeat([]byte{'a'}, 32<<10)

func (b *unclosedString) Read(p []byte) (int, error) {
	if b.n >= b.size {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), b.size-b.n)]
	k := 0
	if b.n < int64(len(b.prefix)) {
		k = copy(p, b.prefix[b.n:])
	}
	for k < len(p) {
		k += copy(p[k:], filler)
	}
	b.n += int64(len(p))
	return len(p), nil
}

// TestEndpointBodiesAreBounded streams a body past the bound of the
// registration endpoint: it must stop reading at serve.MaxBodyBytes and
// answer 400 with the error envelope. The decoder buffers up to the
// bound; collecting often keeps the peak near 250 MB (near 700 MB under
// -race).
func TestEndpointBodiesAreBounded(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	c := NewCoordinator(Options{ProbeInterval: time.Hour})
	defer c.Close()
	body := &unclosedString{prefix: `{"url":"http://`, size: serve.MaxBodyBytes + 1<<20}
	rec := httptest.NewRecorder()
	c.Handler(http.NotFoundHandler()).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RegisterPath, body))
	var env serve.ErrorDoc
	if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != serve.ErrCodeBadRequest {
		t.Errorf("status %d, body %.200q; want a 400 error envelope", rec.Code, rec.Body)
	}
	if body.n > serve.MaxBodyBytes+4<<10 {
		t.Errorf("read %d bytes of a %d-byte body, bound %d", body.n, body.size, serve.MaxBodyBytes)
	}
}

// TestSolveAnswers pins how a unit attempt reads its worker's answer:
// a job document is the unit's outcome, an error envelope is a refusal
// that only queue_full and draining make retryable, and an answer that
// does not parse is a retryable failure.
func TestSolveAnswers(t *testing.T) {
	c := NewCoordinator(Options{ProbeInterval: time.Hour})
	defer c.Close()
	cases := []struct {
		name, body string
		code       int
		status     string // the job document's status; "" when an error is expected
		retry      bool
	}{
		{"done", `{"id":"j1","status":"done","solution":{"objective":1}}`, http.StatusOK, serve.StatusDone, false},
		{"failed", `{"id":"j1","status":"failed","error":"unschedulable"}`, http.StatusUnprocessableEntity, serve.StatusFailed, false},
		{"queue full", `{"error":{"code":"queue_full","message":"busy"}}`, http.StatusTooManyRequests, "", true},
		{"draining", `{"error":{"code":"draining","message":"bye"}}`, http.StatusServiceUnavailable, "", true},
		{"invalid input", `{"error":{"code":"invalid_input","message":"no apps"}}`, http.StatusUnprocessableEntity, "", false},
		{"not json", `<html>`, http.StatusOK, "", true},
		{"no document", `{}`, http.StatusBadGateway, "", true},
	}
	for _, tc := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != "/v1/solve" || r.URL.RawQuery != "strategy=mh" || r.Header.Get("X-Incdes-Request-Id") != "req-1/u0" {
				t.Errorf("%s: worker got %s %s with request ID %q", tc.name, r.Method, r.URL, r.Header.Get("X-Incdes-Request-Id"))
			}
			w.WriteHeader(tc.code)
			io.WriteString(w, tc.body)
		}))
		doc, err := c.solve(context.Background(), ts.URL, "req-1/u0", "strategy=mh", []byte(`{}`))
		ts.Close()
		switch {
		case tc.status != "" && (err != nil || doc.Status != tc.status):
			t.Errorf("%s: doc %+v, err %v; want a %s job document", tc.name, doc, err, tc.status)
		case tc.status == "" && (err == nil || retryable(err) != tc.retry):
			t.Errorf("%s: err %v; want an error with retryable = %v", tc.name, err, tc.retry)
		}
	}
}

func TestRetryable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&refusal{code: serve.ErrCodeQueueFull}, true},
		{&refusal{code: serve.ErrCodeDraining}, true},
		{&refusal{code: serve.ErrCodeBadRequest}, false},
		{&refusal{code: serve.ErrCodeInvalidInput}, false},
		{&refusal{code: serve.ErrCodeInternal}, false},
		{errors.New("connection refused"), true},
		{fmt.Errorf("wrapped: %w", &refusal{code: serve.ErrCodeBadRequest}), false},
	}
	for _, tc := range cases {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := newRegistry()
	if n1 := r.add("http://a"); n1 != "w1" {
		t.Fatalf("name = %q, want w1", n1)
	}
	if again := r.add("http://a"); again != "w1" {
		t.Fatalf("re-add = %q, want w1 (idempotent)", again)
	}
	r.add("http://b")
	r.add("http://c")

	// Least-loaded wins; ties break to the lowest registration index.
	w := r.pick(nil)
	if w.name != "w1" {
		t.Fatalf("first pick = %s, want w1", w.name)
	}
	if w2 := r.pick(nil); w2.name != "w2" {
		t.Fatalf("second pick = %s, want w2 (w1 holds a lease)", w2.name)
	}
	if w3 := r.pick(map[string]bool{"w3": true}); w3.name != "w1" && w3.name != "w2" {
		// All hold one lease; excluded w3 must not be chosen.
		t.Fatalf("excluded pick = %s", w3.name)
	}
	r.release(w)

	// Ejection after the fail limit, and immediate markDown.
	ws := r.list()
	if r.probeFail(ws[0], 3) || r.probeFail(ws[0], 3) {
		t.Fatal("ejected before reaching the fail limit")
	}
	if !r.probeFail(ws[0], 3) {
		t.Fatal("no ejection at the fail limit")
	}
	if r.healthyCount() != 2 {
		t.Fatalf("healthy = %d, want 2", r.healthyCount())
	}
	if !r.markDown(ws[1]) || r.markDown(ws[1]) {
		t.Fatal("markDown transition reported wrong")
	}
	// Probe success readmits.
	if !r.probeOK(ws[0], 5, 1) {
		t.Fatal("probeOK did not report readmission")
	}
	if r.healthyCount() != 2 {
		t.Fatalf("healthy after readmit = %d, want 2", r.healthyCount())
	}
	// The reported queue depth feeds placement.
	if got := r.list()[0].queueDepth; got != 5 {
		t.Fatalf("queueDepth = %d, want 5", got)
	}
}
