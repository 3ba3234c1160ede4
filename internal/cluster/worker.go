package cluster

// Worker side: the RPC endpoint a worker incmapd mounts in front of its
// serve stack. Units execute as in-process HTTP round-trips against the
// wrapped serve handler, so admission control, the solution cache,
// single-flight dedup, metrics and the request-trace middleware are all
// reused verbatim — a worker is an ordinary incmapd plus one endpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"incdes/internal/serve"
)

// WorkerOptions tune a Worker. Zero values select the defaults.
type WorkerOptions struct {
	// Heartbeat is the progress-event cadence of cluster.execute streams
	// (default 250ms) — the coordinator's lease liveness signal.
	Heartbeat time.Duration
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 250 * time.Millisecond
	}
	return o
}

// registerInterval is how often RegisterLoop re-posts the registration.
const registerInterval = 2 * time.Second

// rpcEnvelopeBytes is how much an RPC body may hold besides the system
// it carries: the method, the IDs and the unit's parameters. The worker
// hands a unit's system verbatim to its own solve endpoint, which takes
// at most serve.MaxBodyBytes of it, so the RPC bound turns away no unit
// that endpoint would accept. The request ID and the app name come from
// the client's request line and headers, which net/http caps at 1 MiB by
// default; JSON escaping at most sextuples them.
const rpcEnvelopeBytes = 8 << 20

// Worker serves the cluster RPC protocol over a serve.Server.
type Worker struct {
	srv  *serve.Server
	opts WorkerOptions
}

// NewWorker wraps an assembled serve.Server.
func NewWorker(srv *serve.Server, opts WorkerOptions) *Worker {
	return &Worker{srv: srv, opts: opts.withDefaults()}
}

// Handler mounts the RPC endpoint in front of next (normally the
// wrapped server's own handler).
func (w *Worker) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+RPCPath, w.handleRPC)
	mux.Handle("/", next)
	return mux
}

func (w *Worker) handleRPC(rw http.ResponseWriter, r *http.Request) {
	var req rpcRequest
	body := http.MaxBytesReader(rw, r.Body, serve.MaxBodyBytes+rpcEnvelopeBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(rw, http.StatusBadRequest, rpcResponse{Error: &rpcError{Code: "bad_request", Message: err.Error()}})
		return
	}
	switch req.Method {
	case MethodSnapshot:
		raw, err := json.Marshal(SnapshotResult{Snapshot: w.srv.StatsSnapshot()})
		if err != nil {
			writeJSON(rw, http.StatusInternalServerError, rpcResponse{ID: req.ID, Error: &rpcError{Code: "internal", Message: err.Error()}})
			return
		}
		writeJSON(rw, http.StatusOK, rpcResponse{ID: req.ID, Result: raw})
	case MethodExecute:
		w.execute(rw, r, req)
	default:
		writeJSON(rw, http.StatusBadRequest, rpcResponse{ID: req.ID, Error: &rpcError{Code: "bad_request", Message: "unknown method " + req.Method}})
	}
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(v)
}

// recorder is the minimal ResponseWriter the in-process round-trip
// needs. It deliberately does not implement http.Flusher: the solve
// endpoint never streams, and the serve middleware only upgrades
// writers that do.
type recorder struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

// execute runs one unit and streams progress heartbeats until the
// result. The solve runs under the RPC request's context, so a
// coordinator abandoning the stream cancels the unit.
func (w *Worker) execute(rw http.ResponseWriter, r *http.Request, req rpcRequest) {
	var p ExecuteParams
	if err := json.Unmarshal(req.Params, &p); err != nil {
		writeJSON(rw, http.StatusBadRequest, rpcResponse{ID: req.ID, Error: &rpcError{Code: "bad_request", Message: err.Error()}})
		return
	}
	flusher, canStream := rw.(http.Flusher)

	hreq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "/v1/solve?"+p.Query, bytes.NewReader(p.System))
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, rpcResponse{ID: req.ID, Error: &rpcError{Code: "bad_request", Message: err.Error()}})
		return
	}
	if p.RequestID != "" {
		hreq.Header.Set("X-Incdes-Request-Id", p.RequestID)
	}
	rec := newRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.srv.Handler().ServeHTTP(rec, hreq)
	}()

	if canStream {
		h := rw.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("X-Accel-Buffering", "no")
		rw.WriteHeader(http.StatusOK)
		flusher.Flush()
	}
	enc := json.NewEncoder(rw)
	tick := time.NewTicker(w.opts.Heartbeat)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
			if canStream {
				fmt.Fprint(rw, "event: progress\ndata: ")
				enc.Encode(progressEvent{Unit: p.Unit})
				fmt.Fprint(rw, "\n")
				flusher.Flush()
			}
		case <-r.Context().Done():
			return // coordinator gone; the solve context is cancelled with it
		}
	}

	resp := w.unitResponse(req.ID, p, rec)
	if !canStream {
		writeJSON(rw, http.StatusOK, resp)
		return
	}
	fmt.Fprint(rw, "event: result\ndata: ")
	enc.Encode(resp)
	fmt.Fprint(rw, "\n")
	flusher.Flush()
}

// unitResponse folds the in-process solve response into the RPC result.
// 200 and 422 are terminal unit outcomes (done/interrupted/failed);
// everything else is a protocol-level error the coordinator classifies
// for retry (queue_full and draining are retryable elsewhere).
func (w *Worker) unitResponse(id int64, p ExecuteParams, rec *recorder) rpcResponse {
	switch rec.code {
	case http.StatusOK, http.StatusUnprocessableEntity:
		var doc serve.JobStatusDoc
		if err := json.Unmarshal(rec.body.Bytes(), &doc); err != nil {
			return rpcResponse{ID: id, Error: &rpcError{Code: "internal", Message: "decoding job document: " + err.Error()}}
		}
		res := ExecuteResult{
			Status: doc.Status,
			Error:  doc.Error,
			Doc:    doc.Solution,
			Cache:  rec.hdr.Get("X-Incdes-Cache"),
		}
		if p.RequestID != "" {
			res.Spans = w.srv.RequestSpans(p.RequestID)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return rpcResponse{ID: id, Error: &rpcError{Code: "internal", Message: err.Error()}}
		}
		return rpcResponse{ID: id, Result: raw}
	default:
		var ed serve.ErrorDoc
		code, msg := "unavailable", fmt.Sprintf("worker solve returned %d", rec.code)
		if json.Unmarshal(rec.body.Bytes(), &ed) == nil && ed.Error.Code != "" {
			code, msg = ed.Error.Code, ed.Error.Message
		}
		return rpcResponse{ID: id, Error: &rpcError{Code: code, Message: msg}}
	}
}

// RegisterLoop posts the worker's advertise URL to the coordinator's
// registration endpoint until ctx ends, re-posting every interval so a
// restarted coordinator re-learns the worker. Registration is
// idempotent by URL.
func (w *Worker) RegisterLoop(ctx context.Context, coordinatorURL, selfURL string) {
	body, _ := json.Marshal(RegisterParams{URL: selfURL})
	post := func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinatorURL+RegisterPath, bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		resp.Body.Close()
	}
	post()
	tick := time.NewTicker(registerInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			post()
		}
	}
}
