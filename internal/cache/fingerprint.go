// Package cache memoizes one-shot solve requests: a SHA-256 fingerprint
// of the bytes a request posted, and one table of flights keyed by it. A
// key's flight is either in flight, so concurrent identical requests
// coalesce onto one solve, or landed and kept, so a later identical
// request joins the result; at most a fixed number are kept.
//
// The fingerprint is the load-bearing piece. Identical bytes decode to
// the identical problem, and core.Solve is deterministic — for a fixed
// (problem, strategy tuning) every parallelism level yields a
// byte-identical result — so two requests with one fingerprint are
// guaranteed to produce the same SolutionDoc, and a kept result can
// answer a request, without decoding its body again, in place of a solve
// without changing any response byte. A body that encodes the same
// system differently (whitespace, key order) has another fingerprint: it
// misses and solves again to the same document. Fields that cannot
// change the result (parallelism, observers) are deliberately excluded
// from the hash; everything that can is included. The objective is not
// hashed: a one-shot solve's future profile and weights are functions of
// its system (serve.BuildProblem derives them with gen.ProfileForSystem
// and metrics.DefaultWeights), so the body covers them.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// FingerprintSchemaVersion is hashed into every fingerprint. Bump it
// whenever the hashed fields below change, so caches populated by older
// revisions can never serve a differently-keyed request. Version 5 keys
// on the posted bytes instead of a canonical serialization of the
// decoded model.
const FingerprintSchemaVersion = 5

// Spec is the canonical strategy identity of a request: the strategy
// name plus every tuning knob the HTTP and CLI surfaces expose that can
// change the solved result. Zero-valued SA fields mean the documented
// strategy defaults.
type Spec struct {
	// Name is "ah", "mh", "sa" or "portfolio" ("" means "mh").
	Name string
	// SA tuning, meaningful only for "sa" and "portfolio" (whose SA lane
	// inherits it); normalized away for the other strategies so
	// "mh&sa-iters=5" and "mh" hash identically.
	SAIters    int
	SARestarts int
	SASeed     int64
	// SAChainOffset shifts the global SA chain index (cluster chain-range
	// units). Two units with identical tuning but different offsets solve
	// different chains, so the offset must participate in the hash.
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

// Fingerprint returns the hex SHA-256 of the schema version, the body,
// the app name and the normalized strategy. Integers are written as 8
// little-endian bytes and the body and strings after their length, so
// no two distinct requests hash the same byte stream.
func Fingerprint(r Request) string {
	h := sha256.New()
	var n [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	blob := func(b []byte) {
		num(int64(len(b)))
		h.Write(b)
	}
	spec := r.Strategy.normalized()
	num(FingerprintSchemaVersion)
	blob(r.Body)
	blob([]byte(r.App))
	blob([]byte(spec.Name))
	num(int64(spec.SAIters))
	num(int64(spec.SARestarts))
	num(spec.SASeed)
	num(int64(spec.SAChainOffset))
	return hex.EncodeToString(h.Sum(nil))
}
