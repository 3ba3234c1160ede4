// Package cluster turns a set of incmapd daemons into one solve
// cluster: a coordinator shards work units — SA restart chains,
// portfolio lanes, whole ah/mh jobs — across worker daemons over a
// small JSON-RPC-over-HTTP protocol and reduces the results in unit
// index order, so cluster size and scheduling can change only the wall
// clock, never the answer.
//
// Protocol. Workers mount POST /v1/cluster/rpc; the request body is a
// JSON-RPC-shaped envelope {method, id, params}:
//
//	cluster.execute   run one work unit; the response is an SSE stream
//	                  of heartbeat "progress" events (the coordinator's
//	                  lease liveness signal) terminated by one "result"
//	                  event carrying the {id, result|error} envelope
//	cluster.snapshot  plain JSON response: the worker's aggregate obs
//	                  snapshot, merged into the coordinator's /v1/metrics
//
// Coordinators mount POST /v1/cluster/workers for worker
// self-registration (incmapd -worker-of re-posts it periodically, so a
// restarted coordinator re-learns its fleet).
//
// Determinism argument. Every unit is a plain solve request against the
// worker's own serve stack — admission, solution cache, single-flight
// and metrics all reused — and core.Solve is deterministic, so a unit's
// completed result depends only on the system and the unit's /v1/solve
// query, never on which worker ran it or how often it was retried or
// duplicated. The units are core.Plan's split of the same strategy value
// a local solve runs, and the coordinator folds their results with
// core.Reduce — the rules the local strategies themselves use — so the
// winner, the error precedence and the grouping-independent evaluation
// count 1 + Σ(unit_evals − 1) come from core, not from a copy. A
// 1-worker and a 3-worker cluster — or a cluster that lost and
// reassigned a worker mid-solve — therefore return byte-identical
// solution documents.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"

	"incdes/internal/obs"
	"incdes/internal/serve"
)

// Protocol paths and method names.
const (
	RPCPath      = "/v1/cluster/rpc"     // worker: JSON-RPC endpoint
	RegisterPath = "/v1/cluster/workers" // coordinator: self-registration

	MethodExecute  = "cluster.execute"
	MethodSnapshot = "cluster.snapshot"
)

// rpcRequest is the JSON-RPC-shaped request envelope.
type rpcRequest struct {
	Method string          `json:"method"`
	ID     int64           `json:"id"`
	Params json.RawMessage `json:"params,omitempty"`
}

// rpcError is a protocol-level failure. Code classifies it for the
// coordinator's retry policy; see retryable.
type rpcError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// rpcResponse is the response envelope (the "result" SSE event's data
// for cluster.execute, the whole body otherwise).
type rpcResponse struct {
	ID     int64           `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *rpcError       `json:"error,omitempty"`
}

// rpcFailure is an rpcError surfaced as a Go error on the coordinator.
type rpcFailure struct {
	code string
	msg  string
}

func (e *rpcFailure) Error() string { return fmt.Sprintf("cluster: rpc %s: %s", e.code, e.msg) }

// retryable reports whether a unit attempt that failed with err may
// succeed on another worker: transport errors and capacity rejections
// yes, deterministic request failures no.
func retryable(err error) bool {
	var rf *rpcFailure
	if errors.As(err, &rf) {
		switch rf.code {
		case serve.ErrCodeQueueFull, serve.ErrCodeDraining, "unavailable":
			return true
		}
		return false
	}
	return true // transport-level: connection refused, reset, EOF, ...
}

// ExecuteParams is the cluster.execute payload: one work unit.
type ExecuteParams struct {
	// RequestID is the coordinator's correlation ID suffixed with the
	// unit index ("req-000007/u2"), propagated as X-Incdes-Request-Id so
	// worker-side spans are unique per unit and graftable into the
	// coordinator's trace.
	RequestID string `json:"request_id,omitempty"`
	// Unit is the global unit index, echoed in progress events.
	Unit int `json:"unit"`
	// Query is the unit's POST /v1/solve query string, which the worker
	// posts verbatim: it selects what the unit solves.
	Query string `json:"query"`
	// System is the problem input, verbatim canonical JSON.
	System json.RawMessage `json:"system"`
}

// ExecuteResult is a terminal unit outcome. Status and Error mirror the
// worker-side job document; Doc is nil exactly when the solve failed.
type ExecuteResult struct {
	Status string             `json:"status"`
	Error  string             `json:"error,omitempty"`
	Doc    *serve.SolutionDoc `json:"doc,omitempty"`
	// Cache is the worker-side X-Incdes-Cache annotation (hit/miss/
	// inflight) — informational; hits still return the identical bytes.
	Cache string `json:"cache,omitempty"`
	// Spans are the worker-side span snapshots of the unit's request,
	// grafted into the coordinator's trace with a worker attribute.
	Spans []obs.SpanSnapshot `json:"spans,omitempty"`
}

// SnapshotResult is the cluster.snapshot payload.
type SnapshotResult struct {
	Snapshot obs.Snapshot `json:"snapshot"`
}

// RegisterParams is the worker self-registration payload.
type RegisterParams struct {
	URL string `json:"url"`
}

// progressEvent is the data of one SSE heartbeat.
type progressEvent struct {
	Unit int `json:"unit"`
}
