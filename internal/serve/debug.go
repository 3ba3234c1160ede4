package serve

// Request-scoped observability: the middleware that gives every HTTP
// request an X-Incdes-Request-Id and a span trace, the ring buffer of
// completed request span trees, the /v1/debug/requests surface over it,
// and the slow-request log.
//
// The correlation ID is honored inbound (so a proxy or client can
// propagate its own) or generated server-side, and is echoed on every
// response — success, error envelope or SSE stream alike — because the
// header is set before the handler runs. The span trace travels by
// context through the job manager into core.Solve and session.Commit;
// detached jobs keep appending spans after the 202 response, and the
// recorder snapshots at read time, so their trees fill in as the job
// progresses.

import (
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"incdes/internal/obs"
)

// requestIDHeader carries the request correlation ID in both
// directions.
const requestIDHeader = "X-Incdes-Request-Id"

// statusWriter captures the response status for the request record.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// flushWriter adds Flush only when the underlying writer supports it,
// so the SSE handler's Flusher type-assertion (and its 501 on
// non-streaming transports) keeps working through the middleware.
type flushWriter struct {
	*statusWriter
}

func (w flushWriter) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
}

// trackRequest reports whether a path's trace belongs in the debug
// ring: API traffic yes, infrastructure endpoints (metrics and stats
// scrapes, probes, pprof and the debug surface itself) no.
func trackRequest(path string) bool {
	p := strings.TrimPrefix(path, "/v1")
	switch {
	case p == "/metrics", p == "/stats", p == "/healthz", p == "/readyz":
		return false
	case strings.HasPrefix(p, "/debug/"):
		return false
	}
	return true
}

// instrument wraps the mux with the request-observability middleware.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		}
		w.Header().Set(requestIDHeader, id)
		tracked := trackRequest(r.URL.Path)
		if !tracked {
			next.ServeHTTP(w, r)
			return
		}
		rt := obs.NewRequestTrace(id)
		ctx := obs.ContextWithTrace(r.Context(), rt)
		ctx, root := obs.StartSpan(ctx, "request")
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)

		sw := &statusWriter{ResponseWriter: w}
		var out http.ResponseWriter = sw
		if _, ok := w.(http.Flusher); ok {
			out = flushWriter{sw}
		}
		start := time.Now()
		next.ServeHTTP(out, r.WithContext(ctx))
		root.End()
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.global.Histogram(obs.HstRequestSeconds).Observe(dur.Seconds())
		s.recorder.Record(obs.NewRecord(rt, r.Method, r.URL.Path, status, start, dur))
		if s.cfg.SlowRequestLog > 0 && dur >= s.cfg.SlowRequestLog {
			s.logSlow(rt, r.Method, r.URL.Path, status, dur)
		}
	})
}

// logSlow emits the one-line span breakdown of a slow request:
// key=value fields followed by the spans in start order.
func (s *Server) logSlow(rt *obs.RequestTrace, method, path string, status int, dur time.Duration) {
	lg := s.cfg.SlowLogger
	if lg == nil {
		lg = log.Default()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "slow-request id=%s method=%s path=%s status=%d duration_ms=%.2f spans=",
		rt.ID(), method, path, status, float64(dur)/1e6)
	for i, ss := range rt.Snapshot() {
		if i > 0 {
			b.WriteByte(';')
		}
		if ss.DurationNS < 0 {
			fmt.Fprintf(&b, "%s:open", ss.Name)
			continue
		}
		fmt.Fprintf(&b, "%s:%.2fms", ss.Name, float64(ss.DurationNS)/1e6)
	}
	lg.Print(b.String())
}

// handleDebugRequests serves GET /v1/debug/requests: the retained
// request span trees newest first, filterable by exact status
// (status=), minimum duration (min-duration=, a Go duration) and count
// (n=).
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	wantStatus := 0
	if v := q.Get("status"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad status=%q", v)
			return
		}
		wantStatus = n
	}
	var minDur time.Duration
	if v := q.Get("min-duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad min-duration=%q", v)
			return
		}
		minDur = d
	}
	limit := 0
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad n=%q", v)
			return
		}
		limit = n
	}
	docs := []obs.RequestDoc{}
	for _, rec := range s.recorder.List() {
		if wantStatus != 0 && rec.Status != wantStatus {
			continue
		}
		if minDur > 0 && rec.DurationNS < int64(minDur) {
			continue
		}
		docs = append(docs, rec.Doc())
		if limit > 0 && len(docs) >= limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"requests": docs})
}

// handleDebugRequest serves GET /v1/debug/requests/{id}: one request's
// span tree.
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.recorder.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "no recorded request %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec.Doc())
}
