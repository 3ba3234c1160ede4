package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"incdes/internal/core"
	"incdes/internal/export"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
)

// Job statuses, in lifecycle order.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusDone        = "done"
	StatusInterrupted = "interrupted"
	StatusFailed      = "failed"
)

// SolveParams are the per-request knobs of one solve, parsed from the
// POST /v1/solve query string.
type SolveParams struct {
	Strategy   string // "ah", "mh", "sa" or "portfolio" (default "mh")
	App        string // current-application name; "" = the system's last
	SAIters    int    // SA iterations per chain (0 = auto-size)
	SARestarts int    // SA restart chains (0 = 1, at most 64)
	SASeed     int64  // SA seed (0 = strategy default)
	// SAChainOffset shifts the global SA chain index: a cluster
	// coordinator sends sa-restarts=1&sa-chain-offset=k to run exactly
	// chain k of a larger restart fan on a worker (0 for plain requests).
	SAChainOffset int
	Parallel      int           // evaluation workers (0 = server default)
	Timeout       time.Duration // per-job cap (bounded by the server's JobTimeout)
	Detach        bool          // return 202 immediately instead of waiting
	NoCache       bool          // cache=off: bypass the solution cache for this request
}

// maxSARestarts bounds sa-restarts. Every restart chain is a work unit
// that holds its best schedule state until the reduce, so the bound caps
// what one request can make the daemon allocate.
const maxSARestarts = 64

// Resolve maps the params onto the core.Strategy a local solve runs. A
// cluster coordinator plans its work units from the same value, so local
// and dispatched solves split and reduce identically. It rejects
// sa-restarts above maxSARestarts.
func (p SolveParams) Resolve() (core.Strategy, error) {
	if p.SARestarts > maxSARestarts {
		return nil, fmt.Errorf("sa-restarts=%d exceeds the limit of %d", p.SARestarts, maxSARestarts)
	}
	switch p.Strategy {
	case "", "mh":
		return core.MH, nil
	case "ah":
		return core.AH, nil
	case "sa":
		return core.SAWith(p.saOptions()), nil
	case "portfolio":
		// The portfolio's SA lane inherits the request's SA tuning.
		return core.PortfolioWith(core.PortfolioOptions{
			Lanes: []core.Strategy{core.AH, core.MH, core.SAWith(p.saOptions())},
		}), nil
	default:
		return nil, fmt.Errorf("unknown strategy %q (want ah, mh, sa or portfolio)", p.Strategy)
	}
}

func (p SolveParams) saOptions() core.SAOptions {
	opts := core.DefaultSAOptions()
	opts.Iterations = p.SAIters
	opts.Restarts = p.SARestarts
	opts.ChainOffset = p.SAChainOffset
	if p.SASeed != 0 {
		opts.Seed = p.SASeed
	}
	return opts
}

// BuildProblem freezes every application of sys except the current one
// (appName, or the last application when "") in arrival order and
// assembles the incremental mapping problem — the same preparation
// cmd/incmap performs before Solve. The objective, the future profile
// gen.ProfileForSystem derives under the default configuration and its
// default weights, is a function of sys, so the solution cache's
// fingerprint of sys covers it.
func BuildProblem(sys *model.System, appName string) (*core.Problem, error) {
	if len(sys.Apps) == 0 {
		return nil, fmt.Errorf("system has no applications")
	}
	current := sys.Apps[len(sys.Apps)-1]
	if appName != "" {
		current = nil
		for _, a := range sys.Apps {
			if a.Name == appName {
				current = a
				break
			}
		}
		if current == nil {
			return nil, fmt.Errorf("system has no application %q", appName)
		}
	}
	base, err := sched.NewState(sys)
	if err != nil {
		return nil, err
	}
	for _, app := range sys.Apps {
		if app == current {
			continue
		}
		if _, err := base.MapApp(app, sched.Hints{}); err != nil {
			return nil, fmt.Errorf("scheduling existing application %q: %w", app.Name, err)
		}
	}
	prof := gen.ProfileForSystem(gen.Default(), sys)
	return core.NewProblem(sys, base, current, prof, metrics.DefaultWeights(prof))
}

// SolutionDoc is the deterministic JSON rendering of a solve outcome:
// only fields that are pure functions of (problem, options) appear, so
// the served document is byte-identical to one built from a direct
// core.Solve call on the same input (the end-to-end test pins this).
// Wall-clock quantities live in the surrounding job document instead.
type SolutionDoc struct {
	SchemaVersion int            `json:"schema_version"`
	Strategy      string         `json:"strategy"`
	Interrupted   bool           `json:"interrupted,omitempty"`
	Evaluations   int            `json:"evaluations"`
	Objective     float64        `json:"objective"`
	Report        metrics.Report `json:"report"`
	Design        *export.Design `json:"design"`
}

// NewSolutionDoc extracts the deployable design and assembles the
// document for one solution.
func NewSolutionDoc(sol *core.Solution) (*SolutionDoc, error) {
	design, err := export.Build(sol.State)
	if err != nil {
		return nil, err
	}
	return &SolutionDoc{
		SchemaVersion: 1,
		Strategy:      sol.Strategy,
		Interrupted:   sol.Interrupted,
		Evaluations:   sol.Evaluations,
		Objective:     sol.Report.Objective,
		Report:        sol.Report,
		Design:        design,
	}, nil
}

// eventBuffer is the SSE bridge: an obs.Tracer that retains every event
// of one job so a subscriber attaching at any point replays the stream
// from the beginning in the deterministic emission order, then follows
// live until the job closes the buffer.
type eventBuffer struct {
	mu      sync.Mutex
	seq     int64
	events  []obs.TraceEvent
	done    bool
	waiters []chan struct{}
}

// Trace implements obs.Tracer: assign the sequence number, retain, wake
// followers. Called only from the engine's deterministic serialization
// points, so arrival order is the canonical trace order.
func (b *eventBuffer) Trace(ev obs.TraceEvent) {
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	b.events = append(b.events, ev)
	b.wakeLocked()
	b.mu.Unlock()
}

// close marks the stream complete and wakes every follower.
func (b *eventBuffer) close() {
	b.mu.Lock()
	b.done = true
	b.wakeLocked()
	b.mu.Unlock()
}

func (b *eventBuffer) wakeLocked() {
	for _, ch := range b.waiters {
		close(ch)
	}
	b.waiters = b.waiters[:0]
}

// snapshot returns a copy of everything buffered so far; the solution
// cache stores it so hits and followers can replay the leader's stream.
func (b *eventBuffer) snapshot() []obs.TraceEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]obs.TraceEvent(nil), b.events...)
}

// next returns the events after index from (a copy), whether the stream
// is complete, and — when there is nothing new and the stream is still
// open — a channel that closes on the next event or on completion.
func (b *eventBuffer) next(from int) (evs []obs.TraceEvent, done bool, wait <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < len(b.events) {
		return append([]obs.TraceEvent(nil), b.events[from:]...), b.done, nil
	}
	if b.done {
		return nil, true, nil
	}
	ch := make(chan struct{})
	b.waiters = append(b.waiters, ch)
	return nil, false, ch
}

// CommitInfo annotates a job that ran as a session commit: which
// session and branch it advanced, and the version it created (-1 when
// the solve was interrupted and no version was frozen).
type CommitInfo struct {
	Session        string `json:"session"`
	Branch         string `json:"branch"`
	Version        int    `json:"version"`
	Parent         int    `json:"parent"`
	BaselineReused bool   `json:"baseline_reused,omitempty"`
}

// job is one solve request moving through the bounded manager.
type job struct {
	id       string
	strategy string // strategy tag for aggregation, known at submit time
	reg      *obs.Registry
	buf      *eventBuffer
	trace    *obs.RequestTrace // submitting request's span trace (may be nil)
	cancel   context.CancelFunc

	mu     sync.Mutex
	status string
	doc    *SolutionDoc
	commit *CommitInfo // set by session-commit work before finish
	worker string      // workers that produced a dispatched solve ("" = local)
	err    error
	done   chan struct{}
}

func (j *job) setWorker(w string) {
	j.mu.Lock()
	j.worker = w
	j.mu.Unlock()
}

func (j *job) workerTag() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.worker
}

func (j *job) setCommit(c *CommitInfo) {
	j.mu.Lock()
	j.commit = c
	j.mu.Unlock()
}

func (j *job) commitInfo() *CommitInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.commit
}

func (j *job) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// snapshot returns the job's current (status, doc, err) consistently.
func (j *job) snapshot() (string, *SolutionDoc, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.doc, j.err
}

// finish records the terminal state, closes the SSE stream and releases
// waiters.
func (j *job) finish(doc *SolutionDoc, err error) {
	j.mu.Lock()
	switch {
	case err != nil:
		j.status = StatusFailed
		j.err = err
	case doc.Interrupted:
		j.status = StatusInterrupted
		j.doc = doc
	default:
		j.status = StatusDone
		j.doc = doc
	}
	j.mu.Unlock()
	j.buf.close()
	close(j.done)
}
