package serve

// Cluster dispatch hook. A coordinator incmapd shards solve work across
// worker daemons; the serve layer stays transport-agnostic by accepting
// any Dispatcher through Config.Dispatcher. When the dispatcher claims a
// request, solveWork hands it the posted bytes and parameters instead
// of calling core.Solve locally — so admission control, the solution
// cache, single-flight dedup and job lifecycle all wrap remote solves
// exactly as they wrap local ones. internal/cluster implements the
// interface; serve deliberately does not import it (no cycle, and the
// serve layer stays testable without a cluster).

import (
	"context"

	"incdes/internal/obs"
)

// workerHeader names the worker(s) that produced a dispatched solve on
// the synchronous response, so load harnesses can group latencies per
// worker. Absent on local solves and cache hits.
const workerHeader = "X-Incdes-Worker"

// DispatchRequest is one solve handed to the cluster dispatcher.
type DispatchRequest struct {
	// Body is the posted system document, forwarded to every unit byte
	// for byte.
	Body []byte
	// Params are the request's solve parameters (strategy, tuning,
	// timeout). The dispatcher shards from these.
	Params SolveParams
	// Registry is the job's registry: cluster.* unit counters recorded
	// here fold into the server's per-strategy and global aggregates.
	Registry *obs.Registry
	// Tracer is the job's SSE event collector; the dispatcher may emit
	// deterministic cluster trace events into it.
	Tracer *obs.Collector
}

// DispatchResult is a completed dispatched solve.
type DispatchResult struct {
	// Doc is the reduced solution document — byte-identical to the one a
	// local core.Solve of the same request would produce.
	Doc *SolutionDoc
	// Worker names the worker(s) that executed the units, comma-joined
	// in unit order (informational; never part of the solution bytes).
	Worker string
}

// Dispatcher shards solves across a cluster. Implementations must be
// safe for concurrent use and must preserve the solve determinism
// contract: the returned document may not depend on worker count,
// scheduling or failures.
type Dispatcher interface {
	// CanDispatch reports whether the dispatcher wants this request.
	// Requests it declines run locally.
	CanDispatch(params SolveParams) bool
	// Dispatch runs the solve remotely. ctx carries the coordinator's
	// request trace (for cross-node span grafting) and the job's
	// cancellation.
	Dispatch(ctx context.Context, req *DispatchRequest) (*DispatchResult, error)
}

// ReadyDoc is the JSON body of GET /readyz: the load signal a cluster
// coordinator's health prober consumes for load-aware assignment. The
// status-code contract is unchanged (200 ready, 503 draining).
type ReadyDoc struct {
	Status     string `json:"status"` // "ready" or "draining"
	QueueDepth int64  `json:"queue_depth"`
	InFlight   int64  `json:"in_flight"`
	Draining   bool   `json:"draining,omitempty"`
}

// RequestSpans returns the recorded span snapshots of one request
// correlation ID (nil when unknown or untracked).
func (s *Server) RequestSpans(id string) []obs.SpanSnapshot {
	rec, ok := s.recorder.Get(id)
	if !ok {
		return nil
	}
	return rec.Spans()
}
