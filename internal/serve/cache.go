package serve

// Whole-solution caching and single-flight dedup for POST /v1/solve.
//
// With Config.SolutionCacheSize > 0 every solve request is fingerprinted
// (internal/cache: canonical SHA-256 over the posted system, the current
// application and strategy tuning) and joins that key's flight in the
// server's cache.Table. The response is annotated with X-Incdes-Cache:
//
//	hit       the flight had landed: its kept result answers the request
//	miss      this request leads the flight and runs the solve
//	inflight  coalesced onto an identical in-flight solve
//
// Requests opt out per-request with cache=off (no header is set).
// Session commits never use the table: a commit always solves.
// core.Solve is deterministic, so a cached or coalesced response is
// byte-identical to the solve the request would have run — including the
// SSE trace stream, which hits and followers replay from the leader's
// buffered events. Only the leader takes a queue position and builds the
// problem; a hit or follower schedules nothing.
//
// Single-flight semantics: the leader's solve runs under the flight's
// context (derived from the server, not the leader's connection), so a
// leader disconnect while followers wait does not kill their solve; the
// solve is cancelled only when the last member leaves. Only a complete
// solve is kept; an interrupted or failed one releases its key.

import (
	"context"
	"fmt"
	"time"

	"incdes/internal/cache"
	"incdes/internal/model"
	"incdes/internal/obs"
)

// cacheHeader annotates cache-eligible solve responses.
const cacheHeader = "X-Incdes-Cache"

// solutionEntry is one finished one-shot solve, as a landed flight hands
// it to every member: the response document, the trace events that
// replay its SSE stream, and the ID of the leader's cache.flight span,
// which every member's cache.follow span links to. It is read-only once
// built.
type solutionEntry struct {
	doc    *SolutionDoc
	events []obs.TraceEvent
	flight string
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

// lookup fingerprints the request — the posted system, current
// application and strategy identity, so nothing is scheduled — and
// joins its key's flight, under the cache.lookup span and histogram;
// fingerprinting dominates both. The outcome is "miss" when the caller
// leads the flight, "hit" when the flight has landed and "inflight"
// otherwise; the last two are counted here, a miss once its leader is
// admitted.
func (s *Server) lookup(ctx context.Context, sys *model.System, params SolveParams) (*cache.Flight, string) {
	start := time.Now()
	_, span := obs.StartSpan(ctx, "cache.lookup")
	f, leader := s.solutions.Join(s.baseCtx, cache.Fingerprint(cache.Request{
		System:   sys,
		App:      params.App,
		Strategy: params.cacheSpec(),
	}))
	outcome := "miss"
	if !leader {
		outcome = "inflight"
		counter := obs.CtrSolveCacheInflight
		select {
		case <-f.Done():
			outcome, counter = "hit", obs.CtrSolveCacheHits
		default:
		}
		s.global.Counter(counter).Inc()
	}
	span.SetAttr("outcome", outcome)
	span.End()
	s.global.Histogram(obs.HstCacheLookupSeconds).ObserveSince(start)
	return f, outcome
}

// leaderWork wraps the flight leader's solve: it runs the solve under
// the flight's context, lands the flight with the result (kept when
// complete), and waits for it under the leader's own (request-bound)
// context.
func (s *Server) leaderWork(f *cache.Flight, j *job, solve func(context.Context) (*SolutionDoc, error)) func(context.Context) (*SolutionDoc, error) {
	return func(ctx context.Context) (*SolutionDoc, error) {
		// The flight span brackets the coalesced solve in the leader's
		// trace; the result carries its ID so member spans can reference
		// the leader's flight (single-flight linkage).
		fctx, fspan := obs.StartSpan(ctx, "cache.flight")
		go func() {
			// The solve must run under the flight's context (so it survives
			// the leader leaving) but record into the leader's trace.
			doc, err := solve(obs.CopyTrace(f.Context(), fctx))
			ent := &solutionEntry{doc: doc, events: j.buf.snapshot(), flight: fspan.ID()}
			kept, evicted := f.Complete(ent, err, err == nil && !doc.Interrupted)
			if kept {
				s.global.Counter(obs.CtrSolveCacheStores).Inc()
			}
			if evicted {
				s.global.Counter(obs.CtrSolveCacheEvict).Inc()
			}
		}()
		val, err := s.awaitFlight(ctx, f)
		fspan.End()
		if err != nil {
			return nil, err
		}
		return val.doc, nil
	}
}

// runFollower drives a request that joined a flight it does not lead,
// landed (a hit) or not: no worker slot, no queue accounting — the job
// only waits for the flight and then mirrors its outcome, replaying the
// leader's trace into its own SSE buffer. It shares run()'s jobContext,
// so DELETE, client disconnect, JobTimeout and shutdown behave
// identically.
func (s *Server) runFollower(ctx context.Context, j *job, requested time.Duration, f *cache.Flight) {
	ctx, release := s.jobContext(ctx, j, requested)
	defer release()
	j.setStatus(StatusRunning)
	// The follower's whole wait is one span; on success it links to the
	// leader's flight span.
	_, fspan := obs.StartSpan(ctx, "cache.follow")
	val, err := s.awaitFlight(ctx, f)
	if err != nil {
		fspan.End()
		j.finish(nil, err)
		s.finalize(j)
		return
	}
	fspan.SetAttr("leader_span", val.flight)
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
