package serve

// Whole-solution caching and single-flight dedup for POST /v1/solve.
//
// With Config.SolutionCacheSize > 0 every solve request is fingerprinted
// (internal/cache: canonical SHA-256 over the posted system, problem
// parameters and strategy tuning). The response is annotated with
// X-Incdes-Cache:
//
//	hit       served from the LRU; no job queued, no engine work
//	miss      this request ran the solve (the single-flight leader)
//	inflight  coalesced onto an identical in-flight solve (follower)
//
// Requests opt out per-request with cache=off (no header is set).
// core.Solve is deterministic, so a cached or coalesced response is
// byte-identical to the solve the request would have run — including the
// SSE trace stream, which followers and hits replay from the leader's
// buffered events.
//
// Single-flight semantics: the leader's solve runs under the flight's
// context (derived from the server, not the leader's connection), so a
// leader disconnect while followers wait does not kill their solve; the
// solve is cancelled only when the last member leaves. Interrupted and
// failed solves are never stored.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"incdes/internal/cache"
	"incdes/internal/core"
	"incdes/internal/model"
	"incdes/internal/obs"
)

// cacheHeader annotates cache-eligible solve responses.
const cacheHeader = "X-Incdes-Cache"

// solutionEntry is one finished one-shot solve, as the cache stores it
// and as a completed flight hands it to every member: the response
// document plus the trace events that replay its SSE stream. It is
// read-only once built.
type solutionEntry struct {
	doc    *SolutionDoc
	events []obs.TraceEvent
}

// cacheSpec is the canonical strategy identity of the request, hashed
// into the problem fingerprint.
func (p SolveParams) cacheSpec() cache.Spec {
	return cache.Spec{
		Name:          p.Strategy,
		SAIters:       p.SAIters,
		SARestarts:    p.SARestarts,
		SASeed:        p.SASeed,
		SAChainOffset: p.SAChainOffset,
	}
}

// serveHit answers a request from the solution cache: a job is
// registered (bypassing the queue — a hit does no solver work) so the
// status and SSE endpoints behave exactly as for a solved job, the
// leader's trace is replayed into it, and it completes immediately.
func (s *Server) serveHit(w http.ResponseWriter, r *http.Request, ent *solutionEntry, params SolveParams, tag string) {
	w.Header().Set(cacheHeader, "hit")
	s.global.Counter(obs.CtrSolveCacheHits).Inc()
	j := s.register(tag, obs.TraceFrom(r.Context()))
	for _, ev := range ent.events {
		j.buf.Trace(ev)
	}
	j.finish(ent.doc, nil)
	s.finalize(j)
	if params.Detach {
		w.Header().Set("Location", "/v1/solve/"+j.id)
		writeJSON(w, http.StatusAccepted, s.statusDoc(j))
		return
	}
	writeJSON(w, http.StatusOK, s.statusDoc(j))
}

// leaderWork is the single-flight leader's work closure: it launches the
// real solve under the flight's context, stores the result on success,
// and waits for completion under the leader's own (request-bound)
// context.
func (s *Server) leaderWork(f *cache.Flight, j *job, sys *model.System, p *core.Problem, frozen int, params SolveParams, key string) func(context.Context) (*SolutionDoc, error) {
	return func(ctx context.Context) (*SolutionDoc, error) {
		// The flight span brackets the coalesced solve in the leader's
		// trace; its ID is published on the flight so follower spans can
		// reference the leader's flight (single-flight linkage).
		fctx, fspan := obs.StartSpan(ctx, "cache.flight")
		f.SetNote(fspan.ID())
		solve := s.solveWork(j, sys, p, frozen, params)
		go func() {
			// The solve must run under the flight's context (so it survives
			// the leader leaving) but record into the leader's trace.
			doc, err := solve(obs.CopyTrace(f.Context(), fctx))
			res := &solutionEntry{doc: doc, events: j.buf.snapshot()}
			if err == nil && doc != nil && !doc.Interrupted {
				s.storeSolution(key, res)
			}
			f.Complete(res, err)
		}()
		val, err := s.awaitFlight(ctx, f)
		fspan.End()
		if err != nil {
			return nil, err
		}
		return val.doc, nil
	}
}

// runFollower drives a coalesced request: no worker slot, no queue
// accounting — the job only waits for the leader's flight and then
// mirrors its outcome, replaying the leader's trace into its own SSE
// buffer. It shares run()'s jobContext, so DELETE, client disconnect,
// JobTimeout and shutdown behave identically.
func (s *Server) runFollower(ctx context.Context, j *job, requested time.Duration, f *cache.Flight) {
	ctx, release := s.jobContext(ctx, j, requested)
	defer release()
	j.setStatus(StatusRunning)
	// The follower's whole wait is one span; on success it links to the
	// leader's flight span via the ID the leader published.
	_, fspan := obs.StartSpan(ctx, "cache.follow")
	val, err := s.awaitFlight(ctx, f)
	if err != nil {
		fspan.End()
		j.finish(nil, err)
		s.finalize(j)
		return
	}
	fspan.SetAttr("leader_span", f.Note())
	fspan.End()
	for _, ev := range val.events {
		j.buf.Trace(ev)
	}
	j.finish(val.doc, nil)
	s.finalize(j)
}

// awaitFlight waits for the flight under the member's own context.
// Leaving as the last member cancels the flight's solve, which then
// completes with its best-so-far design — the same semantics a lone
// request's disconnect has always had — so the member still receives the
// interrupted document. Leaving while others remain abandons the result
// to them.
func (s *Server) awaitFlight(ctx context.Context, f *cache.Flight) (*solutionEntry, error) {
	select {
	case <-f.Done():
		f.Leave()
	case <-ctx.Done():
		if f.Leave() > 0 {
			return nil, fmt.Errorf("abandoned coalesced solve: %w", ctx.Err())
		}
		// Last member out: Leave cancelled the flight's context; the
		// solve winds down to best-so-far and completes promptly.
		<-f.Done()
	}
	v, err := f.Result()
	if err != nil {
		return nil, err
	}
	return v.(*solutionEntry), nil
}

// storeSolution caches a completed solve and keeps the serve-level cache
// instruments current.
func (s *Server) storeSolution(key string, ent *solutionEntry) {
	if s.solutions.Put(key, ent) {
		s.global.Counter(obs.CtrSolveCacheEvict).Inc()
	}
	s.global.Counter(obs.CtrSolveCacheStores).Inc()
}
