package cluster

import (
	"bytes"
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

// TestEndpointBodiesAreBounded streams a body past the bound of each
// cluster endpoint: the endpoint must stop reading at its bound and
// answer 400 in its own error shape. The decoder buffers up to the bound;
// collecting often keeps the peak near 250 MB (near 700 MB under -race).
func TestEndpointBodiesAreBounded(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	c := NewCoordinator(Options{ProbeInterval: time.Hour})
	defer c.Close()
	s := serve.New(serve.Config{Parallelism: 1, MaxConcurrent: 1})
	defer s.Close()
	w := NewWorker(s, WorkerOptions{})
	cases := []struct {
		name, path, prefix string
		h                  http.Handler
		bound              int64
		rejected           func(body []byte) bool
	}{
		{
			name: "register", path: RegisterPath, prefix: `{"url":"http://`,
			h: c.Handler(http.NotFoundHandler()), bound: serve.MaxBodyBytes,
			rejected: func(body []byte) bool {
				var env serve.ErrorDoc
				return json.Unmarshal(body, &env) == nil && env.Error.Code == serve.ErrCodeBadRequest
			},
		},
		{
			name: "rpc", path: RPCPath, prefix: `{"method":"cluster.execute","id":1,"params":{"system":"`,
			h: w.Handler(http.NotFoundHandler()), bound: serve.MaxBodyBytes + rpcEnvelopeBytes,
			rejected: func(body []byte) bool {
				var resp rpcResponse
				return json.Unmarshal(body, &resp) == nil && resp.Error != nil && resp.Error.Code == "bad_request"
			},
		},
	}
	for _, tc := range cases {
		body := &unclosedString{prefix: tc.prefix, size: tc.bound + 1<<20}
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
		if rec.Code != http.StatusBadRequest || !tc.rejected(rec.Body.Bytes()) {
			t.Errorf("%s: status %d, body %.200q; want a 400 error envelope", tc.name, rec.Code, rec.Body)
		}
		if body.n > tc.bound+4<<10 {
			t.Errorf("%s: read %d bytes of a %d-byte body, bound %d", tc.name, body.n, body.size, tc.bound)
		}
	}
}

func TestRetryable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&rpcFailure{code: serve.ErrCodeQueueFull}, true},
		{&rpcFailure{code: serve.ErrCodeDraining}, true},
		{&rpcFailure{code: "unavailable"}, true},
		{&rpcFailure{code: "bad_request"}, false},
		{&rpcFailure{code: "internal"}, false},
		{errors.New("connection refused"), true},
		{fmt.Errorf("wrapped: %w", &rpcFailure{code: "bad_request"}), false},
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

func TestReadStream(t *testing.T) {
	beats := 0
	stream := "event: progress\ndata: {\"unit\":1}\n\n" +
		"event: progress\ndata: {\"unit\":1}\n\n" +
		"event: result\ndata: {\"id\":7,\"result\":{\"status\":\"done\"}}\n\n"
	raw, err := readStream(strings.NewReader(stream), func() { beats++ })
	if err != nil {
		t.Fatal(err)
	}
	if beats != 2 {
		t.Errorf("heartbeats = %d, want 2", beats)
	}
	var res ExecuteResult
	if err := decodeResponse(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "done" {
		t.Errorf("status = %q", res.Status)
	}

	if _, err := readStream(strings.NewReader("event: progress\ndata: {}\n\n"), nil); err == nil {
		t.Error("truncated stream did not error")
	}
}

func TestDecodeResponseError(t *testing.T) {
	err := decodeResponse([]byte(`{"id":1,"error":{"code":"queue_full","message":"busy"}}`), &ExecuteResult{})
	if err == nil || !retryable(err) {
		t.Fatalf("err = %v, want retryable rpc failure", err)
	}
	var rf *rpcFailure
	if !errors.As(err, &rf) || rf.code != serve.ErrCodeQueueFull {
		t.Fatalf("err = %v", err)
	}
}
