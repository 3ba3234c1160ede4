package serve

import (
	"context"
	"encoding/json"
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

// maxSARestarts bounds sa-restarts. A local restart chain returns only
// its best design and report, so the bound caps two things: the CPU work
// of one request, and the number of work units a cluster coordinator fans
// out for it, each a whole remote solve that holds its schedule state
// until it answers.
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
// default weights, is a function of sys, so the posted bytes the
// solution cache keys by cover it.
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

// solvedDoc is a solution document as every answer that carries it
// writes it: encoded once with json.Marshal, plus the fields of it that
// the job status and the SSE done event read. It is read-only once
// built, so every job of a flight and the flight's kept result share one.
type solvedDoc struct {
	json        []byte
	objective   float64
	evaluations int
	interrupted bool
}

// result is what a job's work returns and finish stores: the solved
// document and the job's own annotations, which a flight's followers and
// hits do not share.
type result struct {
	solved *solvedDoc
	commit *CommitInfo // the version a session commit created
	worker string      // workers that produced a dispatched solve ("" = local)
	// stats is the job's registry as finish took it, once: the
	// aggregates fold it, and every status document writes statsJSON,
	// its encoding, as the stats member.
	stats     *obs.Snapshot
	statsJSON []byte
}

// newResult encodes a solution document once, taking it as its builder
// returns it: the builder's error, or a document that does not encode,
// fails the job. A local solve, a dispatched solve and a session commit
// all build their result here, and then add their own annotations.
func newResult(doc *SolutionDoc, err error) (result, error) {
	if err != nil {
		return result{}, err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return result{}, fmt.Errorf("encoding solution: %w", err)
	}
	return result{solved: &solvedDoc{json: data, objective: doc.Objective, evaluations: doc.Evaluations, interrupted: doc.Interrupted}}, nil
}

// job is one solve request moving through the bounded manager. A
// finished job holds its result, whose solution exists only as the
// bytes its answers write.
type job struct {
	id       string
	strategy string // strategy tag for aggregation, known at submit time
	reg      *obs.Registry
	buf      *obs.Collector    // the SSE stream: every trace event of the job
	trace    *obs.RequestTrace // submitting request's span trace (may be nil)
	// deleted is cancelled by DELETE, which may arrive before the job's
	// goroutine has derived its context; jobContext watches it.
	deleted     context.Context
	markDeleted context.CancelFunc

	mu     sync.Mutex
	status string
	res    result // set by finish
	err    error
}

func (j *job) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// snapshot returns the job's current (status, result, err) consistently.
func (j *job) snapshot() (string, result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.res, j.err
}

// finish records the terminal state with the job's stats, snapshotted
// and encoded once, and closes the SSE stream.
func (j *job) finish(res result, err error) {
	snap := j.reg.Snapshot()
	res.stats = &snap
	// Observe drops NaN, and every histogram observes a duration, so a
	// snapshot encodes; one that did not would leave stats out.
	res.statsJSON, _ = json.Marshal(snap)
	j.mu.Lock()
	j.res, j.err = res, err
	switch {
	case err != nil:
		j.status = StatusFailed
	case res.solved.interrupted:
		j.status = StatusInterrupted
	default:
		j.status = StatusDone
	}
	j.mu.Unlock()
	j.buf.Close()
}
