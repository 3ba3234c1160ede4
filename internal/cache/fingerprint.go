// Package cache memoizes one-shot solve requests: one table of flights
// keyed by the request itself, the bytes it posted, its current
// application and its normalized strategy. A request's flight is either
// in flight, so concurrent identical requests coalesce onto one solve,
// or landed and kept, so a later identical request joins the result; at
// most a fixed number are kept.
//
// The request identity is the load-bearing piece. Identical bytes decode
// to the identical problem, and core.Solve is deterministic — for a fixed
// (problem, strategy tuning) every parallelism level yields a
// byte-identical result — so two identical requests are guaranteed to
// produce the same SolutionDoc, and a kept result can answer a request,
// without decoding its body again, in place of a solve without changing
// any response byte. A body that encodes the same system differently
// (whitespace, key order) is another request: it misses and solves again
// to the same document. Fields that cannot change the result
// (parallelism, observers) are deliberately not part of the identity;
// everything that can is. The objective is not part of it: a one-shot
// solve's future profile and weights are functions of its system
// (serve.BuildProblem derives them with gen.ProfileForSystem and
// metrics.DefaultWeights), so the body covers them.
//
// The table finds a request's flight by its fingerprint, a hash/maphash
// of the identity under a seed each table draws, and shares the flight
// only once the whole identity compares equal. The fingerprint never
// leaves the process, so it needs no cryptographic strength: two
// different requests that share one cost a solve, never a wrong answer.
package cache

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
)

// Spec is the canonical strategy identity of a request: the strategy
// name plus every tuning knob the HTTP and CLI surfaces expose that can
// change the solved result. Zero-valued SA fields mean the documented
// strategy defaults.
type Spec struct {
	// Name is "ah", "mh", "sa" or "portfolio" ("" means "mh").
	Name string
	// SA tuning, meaningful only for "sa" and "portfolio" (whose SA lane
	// inherits it); normalized away for the other strategies so
	// "mh&sa-iters=5" and "mh" are one request.
	SAIters    int
	SARestarts int
	SASeed     int64
	// SAChainOffset shifts the global SA chain index (cluster chain-range
	// units). Two units with identical tuning but different offsets solve
	// different chains, so the offset is part of the identity.
	SAChainOffset int
}

// normalized resolves the default name and drops tuning that the named
// strategy cannot observe.
func (s Spec) normalized() Spec {
	if s.Name == "" {
		s.Name = "mh"
	}
	if s.Name != "sa" && s.Name != "portfolio" {
		s.SAIters, s.SARestarts, s.SASeed, s.SAChainOffset = 0, 0, 0, 0
	}
	return s
}

// Request is one one-shot solve request: Body and App name the problem
// BuildProblem builds (every other application frozen), Strategy the
// solver identity.
type Request struct {
	// Body is the posted system document, byte for byte.
	Body []byte
	// App names the current application ("" = the system's last, exactly
	// as BuildProblem resolves it).
	App string
	// Strategy identifies the solver and its result-relevant tuning.
	Strategy Spec
}

// same reports whether two normalized requests are identical, so that
// either one's result answers the other.
func (r Request) same(o Request) bool {
	return bytes.Equal(r.Body, o.Body) && r.App == o.App && r.Strategy == o.Strategy
}

// fingerprint hashes a normalized request under seed. The body's and the
// app's lengths are hashed before them, so no two field splits of one
// byte stream alias.
func fingerprint(seed maphash.Seed, r Request) uint64 {
	s := r.Strategy
	var nums [6 * 8]byte
	for i, v := range [...]int64{int64(len(r.Body)), int64(len(r.App)), int64(s.SAIters), int64(s.SARestarts), s.SASeed, int64(s.SAChainOffset)} {
		binary.LittleEndian.PutUint64(nums[8*i:], uint64(v))
	}
	var h maphash.Hash
	h.SetSeed(seed)
	h.Write(nums[:])
	h.Write(r.Body)
	h.WriteString(r.App)
	h.WriteString(s.Name)
	return h.Sum64()
}
