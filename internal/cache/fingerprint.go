// Package cache memoizes whole solve requests: a canonical SHA-256
// problem fingerprint, and one table of flights keyed by it. A key's
// flight is either in flight, so concurrent identical requests coalesce
// onto one solve, or landed and kept, so a later identical request
// joins the result; at most a fixed number are kept.
//
// The fingerprint is the load-bearing piece. core.Solve is deterministic
// — for a fixed (problem, strategy tuning) every parallelism level
// yields a byte-identical result — so two requests whose fingerprints
// collide on purpose (same canonical serialization) are guaranteed to
// produce the same SolutionDoc, and a cached result can be served in
// place of a solve without changing any response byte. Fields that
// cannot change the result (parallelism, observers) are deliberately
// excluded from the hash; everything that can is included.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
)

// FingerprintSchemaVersion is hashed into every fingerprint. Bump it
// whenever the canonical serialization below changes shape, so caches
// populated by older revisions can never serve a differently-encoded
// request. Version 3 extended the architecture encoding to multi-cluster
// platforms (bus count, per-bus identity and slot tables — which also
// cover bus attachment and gateway placement, since both are derived
// from slot ownership).
const FingerprintSchemaVersion = 3

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

// Request is one solve request in canonical form. Exactly one of the
// two shapes is used:
//
//   - one-shot solve: System + App name the problem the serve layer
//     builds with BuildProblem (every other application frozen);
//   - session commit: Parent carries the parent version's composite
//     schedule fingerprint, System the parent's composite system, and
//     Commit the application being committed.
//
// Profile and Weights pin the objective; Strategy the solver identity.
type Request struct {
	// Parent is the parent version's stored schedule fingerprint for
	// session commits ("" for one-shot solves). Including it makes a
	// commit's key specific to the exact frozen composite it extends.
	Parent string
	// System is the full problem input (architecture + applications in
	// arrival order).
	System *model.System
	// App names the current application of a one-shot solve ("" = the
	// system's last, exactly as BuildProblem resolves it).
	App string
	// Commit is the application a session commit adds (nil for one-shot
	// solves).
	Commit *model.Application
	// Profile is the future-application characterization.
	Profile *future.Profile
	// Weights are the objective weights.
	Weights metrics.Weights
	// Strategy identifies the solver and its result-relevant tuning.
	Strategy Spec
}

// Fingerprint returns the hex SHA-256 of the request's canonical
// serialization. The encoding is exact except where the model itself is
// order-insensitive: WCET tables and hint maps are emitted in sorted key
// order (Go maps carry no order), and the profile's histogram bins are
// emitted sorted by (size desc, prob desc) because expand() sorts them
// before use — permuting bins does not change any metric. Everything
// else, slice order included, is semantically significant and hashed in
// declaration order.
func Fingerprint(r Request) string {
	h := newHasher()
	h.tag('V')
	h.i64(FingerprintSchemaVersion)
	h.tag('P')
	h.str(r.Parent)
	if r.System != nil {
		h.tag('S')
		h.system(r.System)
	}
	h.tag('a')
	h.str(r.App)
	if r.Commit != nil {
		h.tag('C')
		h.app(r.Commit)
	}
	if r.Profile != nil {
		h.tag('F')
		h.profile(r.Profile)
	}
	h.tag('W')
	h.f64(r.Weights.W1P)
	h.f64(r.Weights.W1m)
	h.f64(r.Weights.W2P)
	h.f64(r.Weights.W2m)
	spec := r.Strategy.normalized()
	h.tag('T')
	h.str(spec.Name)
	h.i64(int64(spec.SAIters))
	h.i64(int64(spec.SARestarts))
	h.i64(spec.SASeed)
	h.i64(int64(spec.SAChainOffset))
	return hex.EncodeToString(h.h.Sum(nil))
}

// hasher is a tagged, length-prefixed writer into SHA-256. Tags and
// length prefixes make the encoding unambiguous: no two distinct
// requests can serialize to the same byte stream.
type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (h *hasher) tag(b byte) { h.h.Write([]byte{b}) }

func (h *hasher) i64(v int64) {
	binary.LittleEndian.PutUint64(h.buf[:], uint64(v))
	h.h.Write(h.buf[:])
}

func (h *hasher) f64(v float64) { h.i64(int64(math.Float64bits(v))) }

func (h *hasher) str(s string) {
	h.i64(int64(len(s)))
	h.h.Write([]byte(s))
}

func (h *hasher) system(sys *model.System) {
	arch := sys.Arch
	h.i64(int64(len(arch.Nodes)))
	for _, n := range arch.Nodes {
		h.i64(int64(n.ID))
		h.str(n.Name)
	}
	// Buses, in ID order. Slot ownership is hashed per bus, which covers
	// node-to-bus attachment and gateway placement: both are functions of
	// which nodes own slots on which buses.
	h.i64(int64(len(arch.Buses)))
	for _, bus := range arch.Buses {
		h.i64(int64(bus.ID))
		h.i64(int64(len(bus.SlotOrder)))
		for i, owner := range bus.SlotOrder {
			h.i64(int64(owner))
			h.i64(int64(bus.SlotBytes[i]))
		}
		h.i64(int64(bus.ByteTime))
		h.i64(int64(bus.SlotOverhead))
	}
	h.i64(int64(len(sys.Apps)))
	for _, a := range sys.Apps {
		h.app(a)
	}
}

func (h *hasher) app(a *model.Application) {
	h.i64(int64(a.ID))
	h.str(a.Name)
	h.i64(int64(len(a.Graphs)))
	for _, g := range a.Graphs {
		h.i64(int64(g.ID))
		h.str(g.Name)
		h.i64(int64(g.Period))
		h.i64(int64(g.Deadline))
		h.i64(int64(len(g.Procs)))
		for _, p := range g.Procs {
			h.i64(int64(p.ID))
			h.str(p.Name)
			// WCET is a map: emit in sorted node order so two tables built
			// in different insertion orders hash identically.
			nodes := make([]model.NodeID, 0, len(p.WCET))
			for n := range p.WCET {
				nodes = append(nodes, n)
			}
			sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
			h.i64(int64(len(nodes)))
			for _, n := range nodes {
				h.i64(int64(n))
				h.i64(int64(p.WCET[n]))
			}
		}
		h.i64(int64(len(g.Msgs)))
		for _, m := range g.Msgs {
			h.i64(int64(m.ID))
			h.str(m.Name)
			h.i64(int64(m.Src))
			h.i64(int64(m.Dst))
			h.i64(int64(m.Bytes))
		}
	}
}

func (h *hasher) profile(p *future.Profile) {
	h.i64(int64(p.Tmin))
	h.i64(int64(p.TNeed))
	h.i64(p.BNeedBytes)
	h.bins(p.WCET)
	h.bins(p.MsgBytes)
}

// bins canonicalizes a histogram: future.expand sorts bins by size
// before use, so bin order is semantically irrelevant and is normalized
// away here (size desc, then prob desc for duplicate sizes).
func (h *hasher) bins(bins []future.Bin) {
	sorted := append([]future.Bin(nil), bins...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Size != sorted[j].Size {
			return sorted[i].Size > sorted[j].Size
		}
		return sorted[i].Prob > sorted[j].Prob
	})
	h.i64(int64(len(sorted)))
	for _, b := range sorted {
		h.i64(b.Size)
		h.f64(b.Prob)
	}
}
