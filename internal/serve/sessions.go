package serve

// HTTP handlers of the versioned design-session API (/v1/sessions).
// A session commit is a job like any one-shot solve: it runs through the
// same bounded manager, so queue limits, timeouts, cancellation, SSE
// streaming (GET /v1/solve/{id}/events) and /metrics aggregation apply
// unchanged. What differs is the work closure: instead of rebuilding a
// frozen base from the posted system, a commit schedules one new
// application against the session's cached composite and baseline. A
// commit always solves: the solution table keeps one-shot solves only,
// so cache=off, which a commit still accepts, changes nothing.

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/session"
)

// SessionVersionDoc is one version in a rendered session document.
type SessionVersionDoc struct {
	ID          int     `json:"id"`
	Parent      int     `json:"parent"`
	App         string  `json:"app,omitempty"`
	Strategy    string  `json:"strategy,omitempty"`
	Evaluations int     `json:"evaluations,omitempty"`
	Objective   float64 `json:"objective"`
	Fingerprint string  `json:"fingerprint"`
}

// SessionDoc is the JSON document of GET /v1/sessions/{id}: the version
// tree and the branch heads, without the (large) embedded system.
type SessionDoc struct {
	ID       string              `json:"id"`
	Branches map[string]int      `json:"branches"`
	Versions []SessionVersionDoc `json:"versions"`
}

func newSessionDoc(d *session.Doc) *SessionDoc {
	out := &SessionDoc{ID: d.ID, Branches: d.Branches, Versions: make([]SessionVersionDoc, 0, len(d.Versions))}
	for _, v := range d.Versions {
		sv := SessionVersionDoc{
			ID:          v.ID,
			Parent:      v.Parent,
			Strategy:    v.Strategy,
			Evaluations: v.Evaluations,
			Objective:   v.Report.Objective,
			Fingerprint: v.Fingerprint,
		}
		if v.App != nil {
			sv.App = v.App.Name
		}
		out.Versions = append(out.Versions, sv)
	}
	return out
}

// session resolves the {id} path value to a live session, writing the
// error response itself when it cannot.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*session.Session, bool) {
	if s.sessErr != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "session store unavailable: %v", s.sessErr)
		return nil, false
	}
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		writeSessionError(w, err)
		return nil, false
	}
	return sess, true
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeRetryError(w, http.StatusServiceUnavailable, ErrCodeDraining, time.Second, "server is draining")
		return
	}
	if s.sessErr != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "session store unavailable: %v", s.sessErr)
		return
	}
	sys, err := model.ReadSystem(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "reading system: %v", err)
		return
	}
	sess, err := s.sessions.Open(sys, r.URL.Query().Get("id"))
	if err != nil {
		writeSessionError(w, err)
		return
	}
	doc, err := sess.Doc()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+sess.ID())
	writeJSON(w, http.StatusCreated, newSessionDoc(doc))
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	if s.sessErr != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "session store unavailable: %v", s.sessErr)
		return
	}
	ids, err := s.sessions.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, map[string][]string{"sessions": ids})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	doc, err := sess.Doc()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, newSessionDoc(doc))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if s.sessErr != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "session store unavailable: %v", s.sessErr)
		return
	}
	id := r.PathValue("id")
	if err := s.sessions.Delete(id); err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "deleted"})
}

func (s *Server) handleSessionCommit(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeRetryError(w, http.StatusServiceUnavailable, ErrCodeDraining, time.Second, "server is draining")
		return
	}
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	params, err := parseSolveParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	strat, err := params.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	branch := r.URL.Query().Get("branch")
	if branch != "" {
		// Fail unknown branches before queueing the job: the solve is the
		// expensive part and the branch cannot appear in the meantime.
		if _, err := sess.Head(branch); err != nil {
			writeSessionError(w, err)
			return
		}
	}
	app, err := model.ReadApplication(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "reading application: %v", err)
		return
	}
	j, err := s.submit(strat.Name(), obs.TraceFrom(r.Context()))
	if err != nil {
		writeRetryError(w, http.StatusTooManyRequests, ErrCodeQueueFull, time.Second, "%v", err)
		return
	}
	work := func(ctx context.Context) (*SolutionDoc, error) {
		cctx, cspan := obs.StartSpan(ctx, "session.commit")
		t0 := time.Now()
		res, err := sess.Commit(cctx, app, session.CommitParams{
			Branch:      branch,
			Strategy:    strat,
			Parallelism: s.parallelism(params),
			Observer:    &obs.Observer{Stats: j.reg, Tracer: j.buf},
		})
		cspan.End()
		j.reg.Histogram(obs.HstCommitSeconds).ObserveSince(t0)
		if err != nil {
			return nil, err
		}
		j.setCommit(&CommitInfo{
			Session:        sess.ID(),
			Branch:         res.Branch,
			Version:        res.Version,
			Parent:         res.Parent,
			BaselineReused: res.BaselineReused,
		})
		return NewSolutionDoc(res.Solution)
	}
	s.answer(w, r, j, params.Detach, func(ctx context.Context) { s.run(ctx, j, params.Timeout, work) })
}

func (s *Server) handleSessionBranch(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "missing name parameter")
		return
	}
	from, err := sess.Head(session.MainBranch)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	if v := q.Get("from"); v != "" {
		from, err = strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad from=%q", v)
			return
		}
	}
	if err := sess.Branch(name, from); err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"branch": name, "head": from})
}

func (s *Server) handleSessionRollback(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	branch := q.Get("branch")
	if branch == "" {
		branch = session.MainBranch
	}
	v := q.Get("to")
	if v == "" {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "missing to parameter")
		return
	}
	to, err := strconv.Atoi(v)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad to=%q", v)
		return
	}
	if err := sess.Rollback(branch, to); err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"branch": branch, "head": to})
}

func (s *Server) handleSessionDiff(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	parse := func(name string) (int, bool) {
		v := q.Get(name)
		if v == "" {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "missing %s parameter", name)
			return 0, false
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad %s=%q", name, v)
			return 0, false
		}
		return n, true
	}
	from, ok := parse("from")
	if !ok {
		return
	}
	to, ok := parse("to")
	if !ok {
		return
	}
	d, err := sess.Diff(from, to)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}
