package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"incdes/internal/core"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/pack"
	"incdes/internal/sched"
	"incdes/internal/serve"
	"incdes/internal/slack"
	"incdes/internal/tm"
)

// traceCase is one solved input of a workload, as the traced run's layer
// probes need it: the problem and its solution for the replay, and the
// request bodies for the decode timing and the service probe.
type traceCase struct {
	prob *core.Problem
	sol  *core.Solution
	full []byte // the whole system
	base []byte // the system without its current application
	app  []byte // the current application
}

// layers collects the traced run's per-layer observations. Every
// workload reports every per-layer metric: what its timed ops do not
// reach, the probes after the loop measure on the workload's own inputs
// (see README.md).
type layers struct {
	// reg and solveSeconds hold the instruments and total time of the
	// solves behind the core.* metrics: the workload's own traced solves
	// or, for the service workloads, the service probe's.
	reg          *obs.Registry
	mu           sync.Mutex
	solveSeconds float64
	self         map[string][]float64 // span self time in ms, by span name
	commits      map[string][]commitSample
	overhead     float64 // traced over untraced median op latency
}

type commitSample struct {
	seq int
	ms  float64
}

func newLayers() *layers {
	return &layers{reg: obs.NewRegistry(), self: map[string][]float64{}, commits: map[string][]commitSample{}}
}

func (lt *layers) addSolve(d time.Duration) {
	lt.mu.Lock()
	lt.solveSeconds += d.Seconds()
	lt.mu.Unlock()
}

func (lt *layers) addCommit(session string, seq int, d time.Duration) {
	lt.mu.Lock()
	lt.commits[session] = append(lt.commits[session], commitSample{seq, float64(d) / float64(time.Millisecond)})
	lt.mu.Unlock()
}

// addSpans records the self time of every finished span of one request.
func (lt *layers) addSpans(spans []obs.SpanSnapshot) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for _, sp := range spans {
		if sp.DurationNS >= 0 {
			lt.self[sp.Name] = append(lt.self[sp.Name], float64(selfTime(sp, spans))/1e6)
		}
	}
}

// selfTime is a span's duration minus the part of it that its children
// cover.
func selfTime(sp obs.SpanSnapshot, spans []obs.SpanSnapshot) int64 {
	start, end := sp.StartNS, sp.StartNS+sp.DurationNS
	var ivs [][2]int64
	for _, c := range spans {
		if c.Parent != sp.ID || c.ID == sp.ID || c.DurationNS < 0 {
			continue
		}
		if lo, hi := max(c.StartNS, start), min(c.StartNS+c.DurationNS, end); lo < hi {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	covered, reach := int64(0), start
	for _, iv := range ivs {
		if lo := max(iv[0], reach); iv[1] > lo {
			covered += iv[1] - lo
			reach = iv[1]
		}
	}
	return sp.DurationNS - covered
}

// growth is the median over sessions of how much slower a session's last
// fifth of commits ran than its first fifth.
func (lt *layers) growth() float64 {
	var ratios []float64
	for _, seq := range lt.commits {
		sort.Slice(seq, func(a, b int) bool { return seq[a].seq < seq[b].seq })
		k := max(1, len(seq)/5)
		var first, last []float64
		for i := 0; i < k; i++ {
			first = append(first, seq[i].ms)
			last = append(last, seq[len(seq)-k+i].ms)
		}
		ratios = append(ratios, median(last)/median(first))
	}
	return median(ratios)
}

// collect runs the layer probes on the workload's inputs and assembles
// every per-layer metric, timings scaled to the reference speed with
// the loop's clock (sampled again after the probes). It fails when a
// probe fails, including when the separately timed C1 packings do not
// reproduce EvaluateTxn's terms.
func (lt *layers) collect(inst instance, clock *refClock) (map[string]metricValue, error) {
	m := map[string]metricValue{}
	for _, d := range perLayer {
		m[d.name] = metricValue{0, d.unit}
	}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metricValue{v, m[name].Unit}
	}
	set("trace.overhead", lt.overhead)
	cases, err := inst.traceCases()
	if err != nil {
		return m, err
	}

	if err := lt.probeService(cases); err != nil {
		return m, err
	}
	set("serve.request_self_ms_p50", median(lt.self["request"]))
	set("cache.lookup_ms_p50", median(lt.self["cache.lookup"]))
	set("serve.queue_wait_ms_p50", median(lt.self["queue.wait"]))
	set("core.solve_ms_p50", median(lt.self["core.solve"]))
	set("session.commit_self_ms_p50", median(lt.self["session.commit"]))
	set("session.legality_ms_p50", median(lt.self["commit.legality"]))
	set("session.freeze_ms_p50", median(lt.self["commit.freeze"]))
	set("session.commit_growth", lt.growth())

	snap := lt.reg.Snapshot()
	ctr := func(name string) float64 { return float64(snap.Counters[name]) }
	evals, misses := ctr(obs.CtrEvaluations), ctr(obs.CtrCacheMisses)
	set("core.evals_per_s", evals/lt.solveSeconds)
	set("core.evals_per_solve", evals/ctr(obs.CtrSolves))
	set("core.candidate_us", lt.solveSeconds*1e6/misses)
	set("core.memo_hit_ratio", ctr(obs.CtrCacheHits)/evals)
	set("core.infeasible_ratio", ctr(obs.CtrInfeasible)/misses)
	set("sched.jobs_per_candidate", ctr(obs.CtrSchedJobs)/ctr(obs.CtrSchedCalls))
	set("ttp.probes_per_findslot", ctr(obs.CtrTTPProbes)/ctr(obs.CtrTTPFindSlot))

	var rs replayStats
	var objective, decode, doc []float64
	for _, c := range cases {
		objective = append(objective, c.sol.Objective())
		if err := rs.replay(c.prob, c.sol); err != nil {
			return m, err
		}
		dec, exp, err := timeDocuments(c)
		if err != nil {
			return m, err
		}
		decode = append(decode, dec)
		doc = append(doc, exp)
	}
	set("core.objective_mean", mean(objective))
	set("sched.apply_us", mean(rs.apply))
	set("metrics.evaluate_txn_us", mean(rs.eval))
	set("sched.rollback_us", mean(rs.rollback))
	set("pack.c1p_us", mean(rs.c1p))
	set("pack.c1m_us", mean(rs.c1m))
	set("pack.c1m_bins", mean(rs.bins))
	set("slack.dirty_gaps_us", mean(rs.gaps))
	set("sched.dirty_node_frac", mean(rs.dirty))
	set("metrics.full_eval_frac", float64(rs.full)/float64(len(rs.eval)))
	set("metrics.new_baseline_us", median(rs.baseline))
	set("sched.base_clone_us", median(rs.clone))
	set("sched.mapapp_ms", median(rs.mapapp))
	set("replay.coverage", mean(rs.candidate)*misses/(lt.solveSeconds*1e6))
	set("model.decode_ms", median(decode))
	set("export.doc_ms", median(doc))

	clock.sample(10)
	k := clock.scale()
	for name, v := range m {
		switch v.Unit {
		case "us", "ms":
			m[name] = metricValue{v.Value * k, v.Unit}
		case "1/s":
			m[name] = metricValue{v.Value / k, v.Unit}
		}
	}
	return m, nil
}

// replayStats accumulates the replay's per-candidate layer times (µs)
// and its per-problem fixed costs.
type replayStats struct {
	apply, eval, rollback, candidate []float64
	c1p, c1m, gaps, bins, dirty      []float64
	full                             int
	baseline, clone, mapapp          []float64
}

// replay moves every process of the solution, one at a time, to each of
// its other allowed nodes, through the engine's transactional path:
// State.Begin, Txn.Apply, Incremental.EvaluateTxn, Txn.Rollback. For each
// feasible candidate it also packs the C1P and C1m bins, built with the
// slack functions, separately, and requires the two fractions to equal
// EvaluateTxn's terms exactly.
func (rs *replayStats) replay(p *core.Problem, sol *core.Solution) error {
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }
	t0 := time.Now()
	st := p.Base.Clone()
	rs.clone = append(rs.clone, us(t0))
	t0 = time.Now()
	inc := metrics.NewBaseline(p.Base, p.Profile, p.Weights).Evaluator()
	rs.baseline = append(rs.baseline, us(t0))
	im := p.Base.Clone()
	t0 = time.Now()
	if _, err := im.MapApp(p.Current, sched.Hints{}); err != nil {
		return fmt.Errorf("initial mapping: %w", err)
	}
	rs.mapapp = append(rs.mapapp, us(t0)/1000)

	horizon := st.Horizon()
	items := decreasing(p.Profile.LargestAppWCETs(horizon))
	mItems := decreasing(p.Profile.LargestAppMsgBytes(horizon))
	nodes := float64(len(p.Sys.Arch.Nodes))
	var scratch []int64
	var gaps []tm.Interval
	var win []tm.Time
	mapping := sol.Mapping.Clone()
	for _, g := range p.Current.Graphs {
		for _, proc := range g.Procs {
			home := mapping[proc.ID]
			for _, n := range proc.AllowedNodes() {
				if n == home {
					continue
				}
				mapping[proc.ID] = n
				txn := st.Begin()
				t0 := time.Now()
				err := txn.Apply(p.Current, mapping, sol.Hints)
				apply := us(t0)
				var eval float64
				if err == nil {
					t0 = time.Now()
					rep, full := inc.EvaluateTxn(st, txn)
					eval = us(t0)
					rs.eval = append(rs.eval, eval)
					if full {
						rs.full++
					}
					bins := slack.Lengths(slack.AllIntervals(slack.Processor(st)))
					t0 = time.Now()
					frac, s := pack.BestFitUnpacked(items, bins, scratch)
					rs.c1p = append(rs.c1p, us(t0))
					if 100*frac != rep.C1P {
						txn.Rollback()
						return fmt.Errorf("C1P packed alone is %v, EvaluateTxn reported %v", 100*frac, rep.C1P)
					}
					mBins := slack.BusFreeBytes(st)
					t0 = time.Now()
					frac, scratch = pack.BestFitUnpacked(mItems, mBins, s)
					rs.c1m = append(rs.c1m, us(t0))
					if 100*frac != rep.C1m {
						txn.Rollback()
						return fmt.Errorf("C1m packed alone is %v, EvaluateTxn reported %v", 100*frac, rep.C1m)
					}
					rs.bins = append(rs.bins, float64(len(mBins)))
					dirty := txn.DirtyNodes()
					rs.dirty = append(rs.dirty, float64(len(dirty))/nodes)
					t0 = time.Now()
					for _, dn := range dirty {
						gaps = st.Busy(dn).AppendGaps(gaps[:0], tm.Iv(0, horizon))
						win = slack.WindowSlackInto(win, gaps, p.Profile.Tmin, horizon)
					}
					rs.gaps = append(rs.gaps, us(t0))
				}
				t0 = time.Now()
				txn.Rollback()
				rollback := us(t0)
				rs.apply = append(rs.apply, apply)
				rs.rollback = append(rs.rollback, rollback)
				rs.candidate = append(rs.candidate, apply+eval+rollback)
			}
			mapping[proc.ID] = home
		}
	}
	if len(rs.eval) == 0 {
		return errors.New("replay: no feasible single-process move")
	}
	return nil
}

// decreasing returns items in the order best-fit-decreasing packs them.
func decreasing(items []int64) []int64 {
	out := append([]int64(nil), items...)
	sort.SliceStable(out, func(a, b int) bool { return out[a] > out[b] })
	return out
}

// timeDocuments times decoding the case's system and building plus
// encoding its solution document: the request and response work of a
// solve, in ms, median of three.
func timeDocuments(c traceCase) (decode, doc float64, err error) {
	var dec, exp []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if _, err := model.ReadSystem(bytes.NewReader(c.full)); err != nil {
			return 0, 0, err
		}
		dec = append(dec, float64(time.Since(t0))/float64(time.Millisecond))
		t0 = time.Now()
		d, err := serve.NewSolutionDoc(c.sol)
		if err != nil {
			return 0, 0, err
		}
		if _, err := json.Marshal(d); err != nil {
			return 0, 0, err
		}
		exp = append(exp, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(dec), median(exp), nil
}

// probeService sends one of the workload's inputs through a fresh
// server: a solve (a cache miss), the same solve again (a hit), a
// session over the input's frozen applications and two commits of its
// current application, all with MH. Their spans join the span
// statistics, so every workload reports every serving-layer metric.
// When the workload's own ops ran no observed solve (the service
// workloads), the probe's job instruments and core.solve spans feed the
// core.* metrics. The first input the service can schedule is used.
func (lt *layers) probeService(cases []traceCase) error {
	var err error
	for _, c := range cases {
		if err = lt.probeOnce(c); err == nil {
			return nil
		}
	}
	return fmt.Errorf("service probe: %w", err)
}

func (lt *layers) probeOnce(c traceCase) error {
	srv := serve.New(serviceConfig())
	defer srv.Close()
	h := srv.Handler()
	var spans [][]obs.SpanSnapshot
	reg := obs.NewRegistry()
	var solveSeconds float64
	post := func(url string, body []byte, want int) ([]byte, error) {
		rec := call(h, "POST", url, body)
		if rec.Code != want {
			return nil, fmt.Errorf("POST %s: status %d: %.200s", url, rec.Code, rec.Body.String())
		}
		sp := srv.RequestSpans(rec.Header().Get("X-Incdes-Request-Id"))
		spans = append(spans, sp)
		for _, s := range sp {
			if s.Name == "core.solve" && s.DurationNS > 0 {
				solveSeconds += float64(s.DurationNS) / 1e9
			}
		}
		var job struct {
			Stats *obs.Snapshot `json:"stats"`
		}
		if json.Unmarshal(rec.Body.Bytes(), &job) == nil && job.Stats != nil {
			for name, v := range job.Stats.Counters {
				reg.Counter(name).Add(v)
			}
		}
		return rec.Body.Bytes(), nil
	}
	for k := 0; k < 2; k++ {
		if _, err := post("/v1/solve?strategy=mh", c.full, http.StatusOK); err != nil {
			return err
		}
	}
	body, err := post("/v1/sessions", c.base, http.StatusCreated)
	if err != nil {
		return err
	}
	var sess struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sess); err != nil {
		return err
	}
	if _, err := post("/v1/sessions/"+sess.ID+"/branches?name=probe&from=0", nil, http.StatusCreated); err != nil {
		return err
	}
	var commits []time.Duration
	for _, branch := range []string{"main", "probe"} {
		t0 := time.Now()
		if _, err := post("/v1/sessions/"+sess.ID+"/commits?strategy=mh&cache=off&branch="+branch, c.app, http.StatusOK); err != nil {
			return err
		}
		commits = append(commits, time.Since(t0))
	}
	for _, s := range spans {
		lt.addSpans(s)
	}
	for i, d := range commits {
		lt.addCommit("probe", i, d)
	}
	if lt.solveSeconds == 0 {
		lt.reg, lt.solveSeconds = reg, solveSeconds
	}
	return nil
}
