// Package obs is the engine's zero-dependency observability layer:
// typed atomic counters, gauges and histograms behind a Registry, plus
// a structured trace sink (see trace.go) that records per-iteration
// strategy decisions as JSONL.
//
// The design rule is "free when off": every instrument is a pointer
// whose methods are nil-safe no-ops, so instrumented code resolves its
// instruments once (from a possibly-nil Registry) and then calls
// Add/Set/Observe unconditionally on the hot path. With no registry
// attached the whole layer costs one nil check per event and performs
// zero allocations — the property the engine's AllocsPerRun guard test
// pins down.
//
// Canonical instrument names are declared here so that every package —
// core, sched, ttp, the commands — agrees on the instrument catalog that
// Snapshot exports. The catalog is closed: no instrument outside it is
// created, so every exported name has a declared kind and help text.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical instrument names: the instrument catalog (see DESIGN.md
// "Observability"). Counters unless noted otherwise. Strategy anatomy
// (MH moves, SA accepts, portfolio lanes) is not counted here: the
// deterministic trace events already record it exactly once.
const (
	// Engine (internal/core). The engine keeps no evaluation memo, so
	// core.cache_hits stays 0 and core.cache_misses counts every
	// Engine.Evaluate call; both stay declared for the benchmark, which
	// reads them.
	CtrEvaluations = "core.evaluations"  // design alternatives examined
	CtrCacheHits   = "core.cache_hits"   // always 0: no evaluation memo
	CtrCacheMisses = "core.cache_misses" // evaluations that ran the scheduler
	CtrInfeasible  = "core.infeasible"   // evaluations ruled out by requirement (a)
	CtrSolves      = "core.solves"       // core.Solve invocations that ran a strategy

	// Whole-solution cache + single-flight dedup (internal/cache via serve).
	CtrSolveCacheHits     = "cache.hits"           // requests served from the solution cache
	CtrSolveCacheMisses   = "cache.misses"         // requests that led a fresh solve
	CtrSolveCacheInflight = "cache.inflight_dedup" // requests coalesced onto an in-flight solve
	CtrSolveCacheStores   = "cache.stores"         // solutions stored in the cache
	CtrSolveCacheEvict    = "cache.evictions"      // solutions evicted by the LRU bound
	GagSolveCacheEntries  = "cache.entries"        // gauge: solutions resident in the cache

	// Static cyclic scheduler (internal/sched).
	CtrSchedCalls = "sched.schedule_calls" // ScheduleApp invocations
	CtrSchedJobs  = "sched.jobs_placed"    // process occurrences placed

	// TTP bus (internal/ttp).
	CtrTTPFindSlot = "ttp.findslot_calls" // FindSlot invocations
	CtrTTPProbes   = "ttp.slot_probes"    // slot occurrences examined by FindSlot

	// Versioned design sessions (internal/session).
	CtrSessOpens          = "session.opens"           // sessions opened
	CtrSessCommits        = "session.commits"         // committed versions created
	CtrSessBranches       = "session.branches"        // branches created
	CtrSessRollbacks      = "session.rollbacks"       // branch heads rolled back
	CtrSessDiffs          = "session.diffs"           // version diffs computed
	CtrSessReplays        = "session.replays"         // versions rematerialized by replay
	CtrSessBaselineBuilds = "session.baseline_builds" // metric baselines computed for a version
	CtrSessBaselineReuses = "session.baseline_reuses" // commits served from a cached baseline
	GagSessLive           = "session.live"            // gauge: sessions resident in memory

	// Serving-stack latency histograms (internal/serve). All observe
	// seconds over the LatencyBounds bucket grid.
	HstRequestSeconds     = "serve.request_seconds"      // histogram: full HTTP request latency
	HstSolveSeconds       = "serve.solve_seconds"        // histogram: core.Solve latency inside a job
	HstQueueWaitSeconds   = "serve.queue_wait_seconds"   // histogram: admission-queue wait before a slot
	HstCommitSeconds      = "serve.commit_seconds"       // histogram: session commit latency inside a job
	HstCacheLookupSeconds = "serve.cache_lookup_seconds" // histogram: solution-cache lookup latency

	// Multi-node solve cluster (internal/cluster). Unit-lifecycle
	// counters accumulate in the dispatching job's registry (and so in
	// the serve aggregates); prober counters live in the coordinator's
	// own registry, exposed under {worker="coordinator"}.
	CtrClusterUnits      = "cluster.units"           // work units dispatched to workers
	CtrClusterReassigned = "cluster.reassigned"      // units reassigned after a worker failure
	CtrClusterSteals     = "cluster.steals"          // straggler units duplicated onto another worker
	CtrClusterUnitErrors = "cluster.unit_errors"     // unit attempts that failed
	CtrClusterEjections  = "cluster.ejections"       // workers ejected by the health prober
	CtrClusterProbes     = "cluster.probes"          // worker health probes performed
	GagClusterWorkers    = "cluster.workers_healthy" // gauge: workers currently accepting units
	HstClusterUnitSecs   = "cluster.unit_seconds"    // histogram: work-unit round-trip latency
)

// InstrumentKind classifies a catalog instrument.
type InstrumentKind string

// The instrument kinds.
const (
	KindCounter   InstrumentKind = "counter"
	KindGauge     InstrumentKind = "gauge"
	KindHistogram InstrumentKind = "histogram"
)

// Instrument describes one catalog entry: its canonical name, kind, and
// a one-line help text. Exporters (the Prometheus encoder, the serve
// layer) render the catalog from here so names and help strings stay in
// one place.
type Instrument struct {
	Name string
	Kind InstrumentKind
	Help string
}

// catalog is the full declared instrument set, in documentation order.
var catalog = []Instrument{
	{CtrEvaluations, KindCounter, "design alternatives examined"},
	{CtrCacheHits, KindCounter, "always 0: the engine keeps no evaluation memo"},
	{CtrCacheMisses, KindCounter, "evaluations that ran the scheduler"},
	{CtrInfeasible, KindCounter, "evaluations ruled out by requirement (a)"},
	{CtrSolves, KindCounter, "core.Solve invocations that ran a strategy"},
	{CtrSolveCacheHits, KindCounter, "requests served from the solution cache"},
	{CtrSolveCacheMisses, KindCounter, "requests that led a fresh solve"},
	{CtrSolveCacheInflight, KindCounter, "requests coalesced onto an in-flight solve"},
	{CtrSolveCacheStores, KindCounter, "solutions stored in the cache"},
	{CtrSolveCacheEvict, KindCounter, "solutions evicted by the LRU bound"},
	{GagSolveCacheEntries, KindGauge, "solutions resident in the cache"},
	{CtrSchedCalls, KindCounter, "ScheduleApp invocations"},
	{CtrSchedJobs, KindCounter, "process occurrences placed"},
	{CtrTTPFindSlot, KindCounter, "FindSlot invocations"},
	{CtrTTPProbes, KindCounter, "slot occurrences examined by FindSlot"},
	{CtrSessOpens, KindCounter, "design sessions opened"},
	{CtrSessCommits, KindCounter, "session versions committed"},
	{CtrSessBranches, KindCounter, "session branches created"},
	{CtrSessRollbacks, KindCounter, "session branch heads rolled back"},
	{CtrSessDiffs, KindCounter, "session version diffs computed"},
	{CtrSessReplays, KindCounter, "session versions rematerialized by replay"},
	{CtrSessBaselineBuilds, KindCounter, "session metric baselines computed"},
	{CtrSessBaselineReuses, KindCounter, "session commits served from a cached baseline"},
	{GagSessLive, KindGauge, "design sessions resident in memory"},
	{HstRequestSeconds, KindHistogram, "full HTTP request latency in seconds"},
	{HstSolveSeconds, KindHistogram, "core solve latency in seconds"},
	{HstQueueWaitSeconds, KindHistogram, "admission-queue wait in seconds"},
	{HstCommitSeconds, KindHistogram, "session commit latency in seconds"},
	{HstCacheLookupSeconds, KindHistogram, "solution-cache lookup latency in seconds"},
	{CtrClusterUnits, KindCounter, "cluster work units dispatched to workers"},
	{CtrClusterReassigned, KindCounter, "cluster units reassigned after a worker failure"},
	{CtrClusterSteals, KindCounter, "cluster straggler units duplicated onto another worker"},
	{CtrClusterUnitErrors, KindCounter, "cluster unit attempts that failed"},
	{CtrClusterEjections, KindCounter, "cluster workers ejected by the health prober"},
	{CtrClusterProbes, KindCounter, "cluster worker health probes performed"},
	{GagClusterWorkers, KindGauge, "cluster workers currently accepting units"},
	{HstClusterUnitSecs, KindHistogram, "cluster work-unit round-trip latency in seconds"},
}

// Catalog returns the declared instrument set in documentation order.
// The slice is a copy; callers may reorder it freely.
func Catalog() []Instrument {
	return append([]Instrument(nil), catalog...)
}

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a valid sink whose methods do
// nothing, which is what makes disabled instrumentation free.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value; 0 on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value instrument. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set records the value. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Load returns the current value; 0 on a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry owns named instruments. Lookups create on demand, so the
// instrumented code does not need registration order; repeated lookups
// of one name return the same instrument. A nil *Registry is a valid
// "observability off" registry: every lookup returns a nil instrument.
// Safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it over the default
// LatencyBounds if needed. A nil registry returns a nil (no-op)
// histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(nil)
		r.histograms[name] = h
	}
	return h
}

// Merge folds a snapshot into the registry: counters add, gauges take the snapshot's value, and histograms merge bucket-wise. A
// histogram whose bounds differ from the registry's is dropped rather
// than mixed into an incompatible bucket grid. This is how per-job
// registries fold into the serve aggregates and worker snapshots into a
// coordinator's fleet view. No-op on a nil registry.
func (r *Registry) Merge(s Snapshot) {
	if r == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Histograms {
		_ = r.Histogram(name).Merge(hs)
	}
}

// SnapshotSchemaVersion identifies the JSON layout of Snapshot. Bump it
// when a field changes meaning or shape, so stats files written by
// different revisions of the tools can be told apart when diffing.
const SnapshotSchemaVersion = 2

// RunMeta is the run provenance a snapshot may carry: enough to make a
// `-stats-out` document self-describing when it is compared against one
// produced by a different revision, host, or sweep configuration.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	DurationNS int64  `json:"duration_ns"`
	Seed       int64  `json:"seed,omitempty"`
}

// NewRunMeta captures the current runtime and the wall-clock duration
// since start. Seed is recorded verbatim (0 means "not seed-driven").
func NewRunMeta(start time.Time, seed int64) *RunMeta {
	return &RunMeta{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DurationNS: int64(time.Since(start)),
		Seed:       seed,
	}
}

// Snapshot is a point-in-time export of every instrument in a registry.
type Snapshot struct {
	SchemaVersion int                          `json:"schema_version"`
	Meta          *RunMeta                     `json:"meta,omitempty"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports the current value of every instrument. A nil
// registry yields an empty snapshot. The export is not atomic across
// instruments — counters may advance between reads — which is fine for
// the statistics use it serves.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{SchemaVersion: SnapshotSchemaVersion, Counters: map[string]int64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// WriteJSONFile writes v to path as indented JSON, atomically: the
// document is assembled in a temporary file in the same directory and
// renamed over path only after a successful write, so an interrupted run
// never leaves a truncated document behind. Errors name the destination
// path. Go's encoder emits map keys in sorted order, so a snapshot's file
// is deterministic for a given set of values.
func WriteJSONFile(path string, v any) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		tmp.Close()
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	return nil
}

// Observer bundles the two observability sinks a Solve call can carry:
// a Registry for counters/gauges/histograms and a Tracer for the structured
// per-iteration event stream. Either field may be nil; a nil *Observer
// disables the layer entirely.
type Observer struct {
	Stats  *Registry
	Tracer Tracer
}

// Registry returns the observer's registry, nil when o is nil: the
// lookup helper instrumented code uses so it never branches on o.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Stats
}
