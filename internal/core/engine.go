package core

import (
	"context"
	"encoding/binary"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
	"incdes/internal/ttp"
)

// Engine is the shared evaluation machinery behind Solve: a bounded worker
// pool over cloned scheduler states, an evaluation memo keyed by the
// design decisions, and the cancellation plumbing. Strategies
// receive one engine per Solve call and perform every candidate
// evaluation through it, which is what makes them parallel, cancellable,
// and observable without owning any of that logic themselves.
//
// An Engine is safe for concurrent use by the workers it spawns. Results
// are deterministic by construction: evaluation is a pure function of
// (problem, mapping, hints), so neither the worker count nor the cache
// state can change what a strategy computes — only how fast.
type Engine struct {
	p           *Problem
	parallelism int
	cache       *evalCache

	// opts is the resolved Options of the owning Solve call, kept so
	// composite strategies (the portfolio racer) can derive per-lane
	// option sets that inherit the caller's tuning.
	opts Options

	// scratch holds worker-local evaluation contexts reused across
	// evaluations, keeping the per-evaluation allocation cost near zero.
	// Each context owns a private copy of the frozen base, made once, that
	// candidates are applied to and rolled back from as transactions. keys
	// pools the memo key buffers for the same reason: the cache-hit path
	// must not allocate at all.
	scratch sync.Pool
	keys    sync.Pool

	// baseline is the shared read-only metric-input cache behind the
	// transactional evaluation.
	baseline *metrics.Baseline

	evals atomic.Int64
	hits  atomic.Int64

	// Observability (see package obs). The instruments are resolved once
	// here and called unconditionally on the hot path; with no observer
	// attached every one of them is a nil no-op and tracer is nil, so the
	// layer costs one nil check per event — "free when off".
	observer    *obs.Observer
	tracer      obs.Tracer
	statsOn     bool
	cEvals      *obs.Counter
	cHits       *obs.Counter
	cMisses     *obs.Counter
	cInfeasible *obs.Counter
	schedStats  sched.Stats
	ttpStats    ttp.Stats

	// procIDs and msgIDs of the current application in sorted order:
	// the canonical field order of the evaluation-memo key.
	procIDs []model.ProcID
	msgIDs  []model.MsgID
}

// keyBuf is a pooled evaluation-memo key buffer. Pooling a pointer (not
// the slice itself) keeps the sync.Pool round-trip allocation-free.
type keyBuf struct{ b []byte }

// newEngine assembles the engine for one Solve call. opts must already be
// resolved (non-nil strategy; parallelism and cache size may still carry
// their documented zero values, which are resolved here).
func newEngine(p *Problem, opts Options) *Engine {
	e := &Engine{
		p:           p,
		parallelism: opts.Parallelism,
		opts:        opts,
		observer:    opts.Observer,
		baseline:    opts.Baseline,
	}
	if e.baseline == nil {
		e.baseline = metrics.NewBaseline(p.Base, p.Profile, p.Weights)
	}
	if e.parallelism <= 0 {
		e.parallelism = runtime.GOMAXPROCS(0)
	}
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	if size > 0 {
		e.cache = &evalCache{max: size, m: make(map[string]cacheEntry)}
	}
	reg := opts.Observer.Registry()
	if opts.Observer != nil {
		e.tracer = opts.Observer.Tracer
	}
	if reg != nil {
		e.statsOn = true
		e.cEvals = reg.Counter(obs.CtrEvaluations)
		e.cHits = reg.Counter(obs.CtrCacheHits)
		e.cMisses = reg.Counter(obs.CtrCacheMisses)
		e.cInfeasible = reg.Counter(obs.CtrInfeasible)
		e.schedStats = sched.StatsFrom(reg)
		e.ttpStats = ttp.StatsFrom(reg)
	}
	for _, g := range p.Current.Graphs {
		for _, pr := range g.Procs {
			e.procIDs = append(e.procIDs, pr.ID)
		}
		for _, m := range g.Msgs {
			e.msgIDs = append(e.msgIDs, m.ID)
		}
	}
	sort.Slice(e.procIDs, func(i, j int) bool { return e.procIDs[i] < e.procIDs[j] })
	sort.Slice(e.msgIDs, func(i, j int) bool { return e.msgIDs[i] < e.msgIDs[j] })
	return e
}

// Problem returns the problem instance being solved.
func (e *Engine) Problem() *Problem { return e.p }

// Evaluations returns the number of design alternatives examined so far.
func (e *Engine) Evaluations() int64 { return e.evals.Load() }

// CacheHits returns how many of those evaluations were served from the
// memo. The count is informational: concurrent workers may race to fill
// an entry, so it can vary across runs even though results never do.
func (e *Engine) CacheHits() int64 { return e.hits.Load() }

// Tracing reports whether a trace sink is attached, so emitters can skip
// building events entirely when tracing is off.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Trace delivers one structured event to the Solve call's trace sink.
// Free (a nil check) when no tracer is attached. Strategies must call it
// only from deterministic serialization points — never concurrently from
// workers — so the event stream is identical at every parallelism level.
func (e *Engine) Trace(ev obs.TraceEvent) {
	if e.tracer != nil {
		e.tracer.Trace(ev)
	}
}

// count records n examined design alternatives that did not pass through
// Evaluate (the initial mapping, chiefly).
func (e *Engine) count(n int64) {
	e.evals.Add(n)
	e.cEvals.Add(n)
}

// evalScratch is one worker-local evaluation context. st is the
// worker's private schedule state, a copy of the frozen base made once at
// context creation (candidates apply and roll back as transactions, so it
// equals the base between evaluations), and inc is the worker's
// incremental metrics evaluator.
type evalScratch struct {
	st  *sched.State
	inc *metrics.Incremental
}

// Evaluate schedules the current application with the given design
// decisions on a worker-local copy of the frozen base and scores the
// result. It reports ok=false when the design is infeasible (requirement
// (a) rules it out). Identical (mapping, hints) pairs are served from the
// memo without rescheduling. Safe for concurrent use.
//
// The candidate is applied to the worker's base copy in a transaction,
// scored from the touched regions only, and rolled back in O(delta) by
// taking back the schedule-table entries it appended. Reports are
// byte-identical to scheduling a clone of the base and scoring it with
// metrics.Evaluate (pinned by a differential test).
//
// The memo-hit path performs zero allocations (pinned by a test): the key
// is built in a pooled buffer and looked up through Go's non-allocating
// map[string(bytes)] form.
func (e *Engine) Evaluate(mapping model.Mapping, hints sched.Hints) (metrics.Report, bool) {
	e.evals.Add(1)
	e.cEvals.Inc()
	var kb *keyBuf
	if e.cache != nil {
		kb, _ = e.keys.Get().(*keyBuf)
		if kb == nil {
			kb = &keyBuf{}
		}
		kb.b = e.appendKey(kb.b[:0], mapping, hints)
		if ent, ok := e.cache.get(kb.b); ok {
			e.hits.Add(1)
			e.cHits.Inc()
			e.keys.Put(kb)
			return ent.rep, ent.ok
		}
		e.cMisses.Inc()
	}
	ent := e.evaluateTxn(mapping, hints)
	if e.cache != nil {
		e.cache.put(kb.b, ent)
		e.keys.Put(kb)
	}
	return ent.rep, ent.ok
}

// evaluateTxn is the transactional evaluation: Begin / Apply / score
// from dirty regions / Rollback on the worker's standing base copy.
func (e *Engine) evaluateTxn(mapping model.Mapping, hints sched.Hints) cacheEntry {
	scr, _ := e.scratch.Get().(*evalScratch)
	if scr == nil {
		scr = &evalScratch{st: e.p.Base.Clone(), inc: e.baseline.Evaluator()}
		if e.statsOn {
			scr.st.SetStats(e.schedStats)
			scr.st.SetBusStats(e.ttpStats)
		} else {
			// The base may carry instruments; a worker copy must not
			// report into them unless this Solve's observer asked for it.
			scr.st.SetStats(sched.Stats{})
			scr.st.SetBusStats(ttp.Stats{})
		}
	}
	txn := scr.st.Begin()
	var ent cacheEntry
	if err := txn.Apply(e.p.Current, mapping, hints); err == nil {
		rep, _ := scr.inc.EvaluateTxn(scr.st, txn)
		ent = cacheEntry{rep: rep, ok: true}
	} else {
		e.cInfeasible.Inc()
	}
	txn.Rollback()
	e.scratch.Put(scr)
	return ent
}

// Materialize rebuilds the full schedule state of a design alternative
// that Evaluate found feasible. Strategies call it once per accepted
// move, so the fan-out path never has to retain candidate states. It
// does not score the state: Evaluate's report for the alternative is
// its score.
func (e *Engine) Materialize(mapping model.Mapping, hints sched.Hints) (*sched.State, error) {
	st := e.p.Base.Clone()
	if err := st.ScheduleApp(e.p.Current, mapping, hints); err != nil {
		return nil, err
	}
	return st, nil
}

// ForEach runs fn(0..n-1) across the engine's worker pool and returns
// when every started call has finished. Work is handed out dynamically;
// once ctx is cancelled no further indices are started (in-flight calls
// run to completion, so fn should check ctx itself when an item is
// long-running). No goroutines outlive the call.
//
// With an observer attached, each worker goroutine runs under pprof
// labels (incdes.worker=<index>) so CPU profiles attribute evaluation
// time to the pool.
func (e *Engine) ForEach(ctx context.Context, n int, fn func(i int)) {
	workers := e.parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work := func(ctx context.Context) {
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						break
					}
					fn(i)
				}
			}
			if e.observer != nil {
				pprof.Do(ctx, pprof.Labels("incdes.worker", strconv.Itoa(w)), work)
			} else {
				work(ctx)
			}
		}(w)
	}
	wg.Wait()
}

// appendKey encodes (mapping, hints) into the canonical memo key,
// appending to buf: for every process of the current application
// (ascending ID) its node and start hint, then for every message its
// start hint. Absent hints encode as -1. The key is exact — no hashing —
// so a memo hit can never return the report of a different design.
func (e *Engine) appendKey(buf []byte, mapping model.Mapping, hints sched.Hints) []byte {
	for _, id := range e.procIDs {
		buf = appendI64(buf, int64(mapping[id]))
		if off, ok := hints.ProcStart[id]; ok {
			buf = appendI64(buf, int64(off))
		} else {
			buf = appendI64(buf, -1)
		}
	}
	for _, id := range e.msgIDs {
		if off, ok := hints.MsgStart[id]; ok {
			buf = appendI64(buf, int64(off))
		} else {
			buf = appendI64(buf, -1)
		}
	}
	return buf
}

func appendI64(buf []byte, v int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return append(buf, b[:]...)
}

// cacheEntry is one memoized evaluation outcome.
type cacheEntry struct {
	rep metrics.Report
	ok  bool
}

// evalCache memoizes evaluation outcomes up to a fixed entry count.
// Insertion simply stops at capacity: strategies revisit recent designs
// (SA late in cooling, MH undo-moves), so keeping the earliest entries is
// close enough to LRU at a fraction of the bookkeeping.
type evalCache struct {
	mu  sync.RWMutex
	max int
	m   map[string]cacheEntry
}

// get looks key up without copying it: the map[string(bytes)] form is
// recognized by the compiler and does not allocate, which keeps the
// engine's memo-hit path allocation-free.
func (c *evalCache) get(key []byte) (cacheEntry, bool) {
	c.mu.RLock()
	ent, ok := c.m[string(key)]
	c.mu.RUnlock()
	return ent, ok
}

// put stores the outcome under a copy of key (insertion is the miss
// path, where one small allocation is immaterial next to a re-schedule).
func (c *evalCache) put(key []byte, ent cacheEntry) {
	c.mu.Lock()
	if len(c.m) < c.max {
		c.m[string(key)] = ent
	}
	c.mu.Unlock()
}
