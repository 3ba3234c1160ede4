package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/model"
	"incdes/internal/serve"
)

// The service workloads drive an in-process serve.Server handler with
// httptest, as cmd/incload does, from two closed-loop clients over eight
// generated systems. svc-resubmit is the read path: every request is a
// cache hit, so decoding, building the problem, fingerprinting, the LRU
// lookup and encoding are the whole cost. svc-commit is the write path:
// every session commit runs the legality check, a solve, the freeze and
// persistence, with the cache off. Its commits use AH, the initial
// mapping alone: a fixed, small solve, so the session layer dominates
// and MH's effort, which differs twofold between generated problems and
// which mh-single-bus measures, does not drown it.
var (
	svcResubmit = &workload{
		name:    "svc-resubmit",
		clients: 2,
		scale:   scale{inputs: 8, existing: 100, current: 20, rate: 1000, setups: 3},
		generate: func(seed int64, sc scale) (inputs, error) {
			return generateService(seed, sc, "mh", false)
		},
	}
	svcCommit = &workload{
		name:    "svc-commit",
		clients: 2,
		scale:   scale{inputs: 8, existing: 100, current: 20, rate: 60, setups: 3},
		generate: func(seed int64, sc scale) (inputs, error) {
			return generateService(seed, sc, "ah", true)
		},
	}
)

// serviceConfig is the server of both service workloads: two solve
// slots for two clients, one evaluation worker per solve.
func serviceConfig() serve.Config {
	return serve.Config{MaxConcurrent: 2, Parallelism: 1, SolutionCacheSize: 256}
}

type serviceInputs struct {
	strategy string // the strategy query parameter
	commit   bool   // svc-commit; otherwise svc-resubmit
	in       []*serviceInput
}

// serviceInput is one generated system, with the one-shot solve that
// POST /v1/solve would run on it.
type serviceInput struct {
	traceCase        // the problem, its solution and the request bodies
	doc       []byte // the solution's canonical document
}

// generateService generates the systems and solves each one-shot with
// core.Solve, exactly as the service would. Systems the service cannot
// take are skipped: a current application that would change the
// hyperperiod (an illegal commit), or frozen applications that do not
// fit the service's own initial mapping.
func generateService(seed int64, sc scale, strategy string, commit bool) (inputs, error) {
	strat := core.MH
	if strategy == "ah" {
		strat = core.AH
	}
	in := &serviceInputs{strategy: strategy, commit: commit}
	for k := 0; len(in.in) < sc.inputs; k++ {
		if k == 4*sc.inputs {
			return nil, fmt.Errorf("only %d of %d generated systems are servable", len(in.in), k)
		}
		tc, err := gen.MakeTestCase(quickConfig(), inputSeed(seed, k), sc.existing, sc.current)
		if err != nil {
			return nil, err
		}
		if (&model.System{Arch: tc.Sys.Arch, Apps: tc.Existing}).Hyperperiod() != tc.Sys.Hyperperiod() {
			continue
		}
		c := &serviceInput{}
		if c.traceCase, err = newTraceCase(tc, nil, nil); err != nil {
			return nil, err
		}
		sys, err := model.ReadSystem(bytes.NewReader(c.full))
		if err != nil {
			return nil, err
		}
		if c.prob, err = serve.BuildProblem(sys, ""); err != nil {
			continue
		}
		if c.sol, err = core.Solve(context.Background(), c.prob, core.Options{Strategy: strat, Parallelism: 1}); err != nil {
			continue
		}
		doc, err := serve.NewSolutionDoc(c.sol)
		if err != nil {
			return nil, err
		}
		if c.doc, err = json.Marshal(doc); err != nil {
			return nil, err
		}
		in.in = append(in.in, c)
	}
	return in, nil
}

type serviceRun struct {
	*serviceInputs
	srv      *serve.Server
	h        http.Handler
	sessions []string // svc-commit: each input's session
	refs     [][]byte // the solution document each input's responses carry
	wants    [][]byte // refs as they appear in a response body
}

// call serves one request in-process.
func call(h http.Handler, method, url string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
	return rec
}

// setup starts a server and readies it for the timed ops. svc-resubmit
// posts every system once: the cold solves that fill the solution cache,
// each required to match the direct solve. svc-commit opens a session
// per system over its frozen applications, commits the current
// application once on main (the document every later commit must
// reproduce), and creates one branch from version 0 per round, so each
// timed commit advances a fresh branch.
func (in *serviceInputs) setup(rounds int) (instance, error) {
	srv := serve.New(serviceConfig())
	r := &serviceRun{serviceInputs: in, srv: srv, h: srv.Handler()}
	if err := r.ready(rounds); err != nil {
		srv.Close()
		return nil, err
	}
	return r, nil
}

func (r *serviceRun) ready(rounds int) error {
	for i, c := range r.in {
		if !r.commit {
			rec := call(r.h, "POST", "/v1/solve?strategy="+r.strategy, c.full)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Incdes-Cache") != "miss" {
				return fmt.Errorf("warming system %d: status %d, cache %q", i, rec.Code, rec.Header().Get("X-Incdes-Cache"))
			}
			r.addRef(c.doc)
			if !bytes.Contains(rec.Body.Bytes(), r.wants[i]) {
				return fmt.Errorf("warming system %d: the served solution differs from a direct core.Solve", i)
			}
			continue
		}
		rec := call(r.h, "POST", "/v1/sessions", c.base)
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("opening a session on system %d: status %d: %.200s", i, rec.Code, rec.Body.String())
		}
		var sess struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil {
			return fmt.Errorf("decoding the session document: %w", err)
		}
		r.sessions = append(r.sessions, sess.ID)
		rec = call(r.h, "POST", "/v1/sessions/"+sess.ID+"/commits?strategy="+r.strategy+"&cache=off", c.app)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("first commit on system %d: status %d: %.200s", i, rec.Code, rec.Body.String())
		}
		var job struct {
			Solution json.RawMessage `json:"solution"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			return fmt.Errorf("decoding the commit response: %w", err)
		}
		r.addRef(job.Solution)
		for b := 0; b < rounds; b++ {
			rec := call(r.h, "POST", fmt.Sprintf("/v1/sessions/%s/branches?name=b%d&from=0", sess.ID, b), nil)
			if rec.Code != http.StatusCreated {
				return fmt.Errorf("creating branch b%d: status %d", b, rec.Code)
			}
		}
	}
	return nil
}

func (r *serviceRun) addRef(doc []byte) {
	r.refs = append(r.refs, doc)
	r.wants = append(r.wants, append([]byte(`"solution":`), doc...))
}

func (r *serviceRun) inputs() int    { return len(r.in) }
func (r *serviceRun) balanced() bool { return false }
func (r *serviceRun) docs() [][]byte { return r.refs }
func (r *serviceRun) close()         { r.srv.Close() }

// op posts one request: a resubmit of a hot system, or a commit of a
// session's application on the round's branch. Every response must carry
// the input's document; a resubmit must also be served from the cache.
// A traced op reads the request's spans back from the server.
func (r *serviceRun) op(i int, lt *layers) sample {
	k := i % len(r.in)
	url := "/v1/solve?strategy=" + r.strategy
	body := r.in[k].full
	if r.commit {
		url = fmt.Sprintf("/v1/sessions/%s/commits?branch=b%d&strategy=%s&cache=off", r.sessions[k], i/len(r.in), r.strategy)
		body = r.in[k].app
	}
	t0 := time.Now()
	rec := call(r.h, "POST", url, body)
	s := sample{dur: time.Since(t0)}
	cache := rec.Header().Get("X-Incdes-Cache")
	switch {
	case rec.Code != http.StatusOK:
		s.err = fmt.Errorf("POST %s: status %d: %.200s", url, rec.Code, rec.Body.String())
	case !r.commit && cache != "hit" && cache != "inflight":
		s.err = fmt.Errorf("POST %s: X-Incdes-Cache %q, want a hit on a hot system", url, cache)
	case !bytes.Contains(rec.Body.Bytes(), r.wants[k]):
		s.err = fmt.Errorf("POST %s: the solution differs from the reference document", url)
	}
	if lt != nil {
		lt.addSpans(r.srv.RequestSpans(rec.Header().Get("X-Incdes-Request-Id")))
		if r.commit {
			lt.addCommit(r.sessions[k], i, s.dur)
		}
	}
	return s
}

func (r *serviceRun) traceCases() ([]traceCase, error) {
	out := make([]traceCase, len(r.in))
	for i, c := range r.in {
		out[i] = c.traceCase
	}
	return out, nil
}
