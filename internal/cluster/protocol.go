// Package cluster turns a set of incmapd daemons into one solve
// cluster: a coordinator shards work units — SA restart chains,
// portfolio lanes, whole ah/mh jobs — across worker daemons and reduces
// the results in unit index order, so cluster size and scheduling can
// change only the wall clock, never the answer.
//
// Protocol. A worker is any incmapd; the coordinator uses only its
// public API:
//
//	POST /v1/solve?<unit query>  run one work unit: the body is the
//	                             system, the answer the job document
//	GET  /v1/stats               the worker's aggregate obs snapshot,
//	                             merged into the coordinator's /v1/metrics
//	GET  /readyz                 health and load, polled by the prober
//
// Coordinators mount POST /v1/cluster/workers for worker
// self-registration (incmapd -worker-of re-posts it periodically, so a
// restarted coordinator re-learns its fleet); workers may also be
// listed statically.
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
	"errors"
	"fmt"

	"incdes/internal/serve"
)

// RegisterPath is the coordinator's self-registration endpoint.
const RegisterPath = "/v1/cluster/workers"

// RegisterParams is the worker self-registration payload.
type RegisterParams struct {
	URL string `json:"url"`
}

// refusal is a worker's error envelope answering a unit attempt. Its
// code classifies it for the retry policy; see retryable.
type refusal struct {
	code string
	msg  string
}

func (e *refusal) Error() string {
	return fmt.Sprintf("cluster: worker refused unit: %s: %s", e.code, e.msg)
}

// retryable reports whether a unit attempt that failed with err may
// succeed on another worker: transport errors, unparsable answers and
// capacity refusals yes, deterministic request failures no.
func retryable(err error) bool {
	var r *refusal
	if errors.As(err, &r) {
		return r.code == serve.ErrCodeQueueFull || r.code == serve.ErrCodeDraining
	}
	return true
}
