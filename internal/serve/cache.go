package serve

// Whole-solution caching and single-flight dedup for POST /v1/solve.
//
// With Config.SolutionCacheSize > 0 every solve request joins its
// flight in the server's cache.Table before its body is decoded: the
// table keys a flight by the request itself (internal/cache: the posted
// bytes, the current application and strategy tuning), found by a
// maphash of them and compared whole. The response is annotated with
// X-Incdes-Cache:
//
//	hit       the flight had landed: its kept result answers the request
//	miss      this request leads the flight and runs the solve
//	inflight  coalesced onto an identical in-flight solve
//
// Requests opt out per-request with cache=off (no header is set).
// Session commits never use the table: a commit always solves.
// core.Solve is deterministic, so a cached or coalesced response is
// byte-identical to the solve the request would have run — including the
// SSE trace stream: a hit's or follower's collector adopts the leader's
// kept events, sharing them instead of copying. Only the leader takes a
// queue position and builds the problem; a hit or follower schedules
// nothing.
//
// A hit decodes nothing and encodes nothing: the flight's leader
// decoded, validated and solved the same bytes, and its work encoded the
// solution document once, as every job's work does; the flight keeps
// those bytes for every member to write as they are. A leader and an
// in-flight follower decode and validate after they join; bytes that
// fail answer 400, and a leader posting them lands its flight with that
// error. Hits and followers are counted only when they answer from the
// flight.
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
	"incdes/internal/obs"
)

// cacheHeader annotates cache-eligible solve responses.
const cacheHeader = "X-Incdes-Cache"

// solutionEntry is one finished one-shot solve, as a landed flight hands
// it to every member: the leader's solved document, whose bytes every
// member's status document writes as its solution (writeStatus); the
// leader's collected trace events (its collector's Events, not a copy),
// which every member's SSE stream shares; and the ID of the leader's
// cache.flight span, which every member's cache.follow span links to.
// The leader's annotations stay with the leader. It is read-only once
// built.
type solutionEntry struct {
	solved *solvedDoc
	events []obs.TraceEvent
	flight string
}

// cacheSpec is the canonical strategy identity of the request, part of
// the request the solution table keys by.
func (p SolveParams) cacheSpec() cache.Spec {
	return cache.Spec{
		Name:          p.Strategy,
		SAIters:       p.SAIters,
		SARestarts:    p.SARestarts,
		SASeed:        p.SASeed,
		SAChainOffset: p.SAChainOffset,
	}
}

// lookup joins the request's flight — keyed by the posted bytes, current
// application and strategy identity, so nothing is decoded or scheduled
// — under the cache.lookup span and histogram; hashing the bytes, and
// comparing them with a flight's on a match, dominates both. The outcome
// is "miss" when the caller leads the flight, "hit" when the flight has
// landed with a result, whose leader decoded, validated and solved these
// bytes, and "inflight" otherwise. The caller counts a member once it
// answers from the flight, and a miss once its leader is admitted.
func (s *Server) lookup(ctx context.Context, body []byte, params SolveParams) (*cache.Flight, string) {
	start := time.Now()
	_, span := obs.StartSpan(ctx, "cache.lookup")
	f, leader := s.solutions.Join(s.baseCtx, cache.Request{
		Body:     body,
		App:      params.App,
		Strategy: params.cacheSpec(),
	})
	outcome := "miss"
	if !leader {
		outcome = "inflight"
		select {
		case <-f.Done():
			if _, err := f.Result(); err == nil {
				outcome = "hit"
			}
		default:
		}
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
func (s *Server) leaderWork(f *cache.Flight, j *job, solve func(context.Context) (result, error)) func(context.Context) (result, error) {
	return func(ctx context.Context) (result, error) {
		// The flight span brackets the coalesced solve in the leader's
		// trace; the result carries its ID so member spans can reference
		// the leader's flight (single-flight linkage).
		fctx, fspan := obs.StartSpan(ctx, "cache.flight")
		var res result // the leader's own; written before the flight lands
		go func() {
			// The solve must run under the flight's context (so it survives
			// the leader leaving) but record into the leader's trace.
			var err error
			res, err = solve(obs.CopyTrace(f.Context(), fctx))
			ent := &solutionEntry{solved: res.solved, events: j.buf.Events(), flight: fspan.ID()}
			kept, evicted := f.Complete(ent, err, err == nil && !res.solved.interrupted)
			if kept {
				s.global.Counter(obs.CtrSolveCacheStores).Inc()
			}
			if evicted {
				s.global.Counter(obs.CtrSolveCacheEvict).Inc()
			}
		}()
		_, err := s.awaitFlight(ctx, f)
		fspan.End()
		if err != nil {
			return result{}, err
		}
		return res, nil
	}
}

// runFollower drives a request that joined a flight it does not lead,
// landed (a hit) or not: no worker slot, no queue accounting — the job
// only waits for the flight and then mirrors its outcome, its collector
// adopting the leader's trace events. It shares run()'s jobContext,
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
	var res result
	if err == nil {
		fspan.SetAttr("leader_span", val.flight)
		j.buf.Adopt(val.events)
		res.solved = val.solved
	}
	fspan.End()
	j.finish(res, err)
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
