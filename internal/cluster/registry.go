package cluster

// Worker registry: membership, health state from /readyz probes, and
// the load signal (leases + reported queue depth) unit placement uses.

import (
	"strconv"
	"sync"
)

// workerState is one registered worker.
type workerState struct {
	name string // stable short label: w1, w2, ... in registration order
	url  string

	healthy    bool
	fails      int   // consecutive probe failures
	queueDepth int64 // from the last /readyz body
	inFlight   int64
	leases     int // units currently leased to this worker
}

// registry tracks the worker fleet. All methods are safe for concurrent
// use.
type registry struct {
	mu      sync.Mutex
	workers []*workerState
	byURL   map[string]*workerState
}

func newRegistry() *registry {
	return &registry{byURL: map[string]*workerState{}}
}

// add registers a worker by URL, idempotently, and returns its stable
// name. New workers start healthy so they are schedulable before the
// first probe.
func (r *registry) add(url string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.byURL[url]; ok {
		return w.name
	}
	w := &workerState{
		name:    "w" + strconv.Itoa(len(r.workers)+1),
		url:     url,
		healthy: true,
	}
	r.workers = append(r.workers, w)
	r.byURL[url] = w
	return w.name
}

// pick leases the least-loaded healthy worker not in exclude (a set of
// worker names), preferring lower registration index on ties so
// placement is deterministic given equal load. Returns nil when no
// eligible worker exists.
func (r *registry) pick(exclude map[string]bool) *workerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *workerState
	var bestLoad int64
	for _, w := range r.workers {
		if !w.healthy || exclude[w.name] {
			continue
		}
		load := int64(w.leases) + w.queueDepth
		if best == nil || load < bestLoad {
			best, bestLoad = w, load
		}
	}
	if best != nil {
		best.leases++
	}
	return best
}

// release returns a lease taken by pick.
func (r *registry) release(w *workerState) {
	r.mu.Lock()
	if w.leases > 0 {
		w.leases--
	}
	r.mu.Unlock()
}

// probeOK records a successful health probe and its load report.
// Returns true when the worker transitioned unhealthy→healthy.
func (r *registry) probeOK(w *workerState, queueDepth, inFlight int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w.fails = 0
	w.queueDepth = queueDepth
	w.inFlight = inFlight
	readmitted := !w.healthy
	w.healthy = true
	return readmitted
}

// probeFail records a failed probe; after limit consecutive failures
// the worker is ejected (marked unhealthy). Returns true on the
// healthy→unhealthy transition.
func (r *registry) probeFail(w *workerState, limit int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w.fails++
	if w.healthy && w.fails >= limit {
		w.healthy = false
		return true
	}
	return false
}

// markDown ejects a worker immediately (on a failed unit attempt that
// may succeed elsewhere); the prober readmits it when /readyz answers
// again. Returns true on the healthy→unhealthy transition.
func (r *registry) markDown(w *workerState) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !w.healthy {
		return false
	}
	w.healthy = false
	w.fails++
	return true
}

// anyHealthy reports whether any worker named in names is schedulable.
func (r *registry) anyHealthy(names map[string]bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		if names[w.name] && w.healthy {
			return true
		}
	}
	return false
}

// list returns a stable-order snapshot of the fleet.
func (r *registry) list() []*workerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*workerState, len(r.workers))
	copy(out, r.workers)
	return out
}

// healthyCount reports how many workers are currently schedulable.
func (r *registry) healthyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.workers {
		if w.healthy {
			n++
		}
	}
	return n
}

// WorkerInfo is the public registry row served at GET RegisterPath.
type WorkerInfo struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	QueueDepth int64  `json:"queue_depth"`
	InFlight   int64  `json:"in_flight"`
	Leases     int    `json:"leases"`
}

// info snapshots the fleet for the HTTP listing.
func (r *registry) info() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerInfo{
			Name:       w.name,
			URL:        w.url,
			Healthy:    w.healthy,
			QueueDepth: w.queueDepth,
			InFlight:   w.inFlight,
			Leases:     w.leases,
		})
	}
	return out
}
