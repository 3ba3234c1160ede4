package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceEvent is one structured observation of a strategy run. The
// engine emits events into a Solve's stream only from deterministic
// serialization points (after each MH iteration's parallel reduce, after
// SA's chains or a portfolio's lanes have been joined, replaying each
// one's own collector in index order), so for a fixed problem and
// options the event stream is identical at every parallelism level —
// the golden-trace test pins this. Wall-clock quantities deliberately never appear in a trace.
//
// Event kinds and the fields they carry:
//
//	solve.start  Strategy
//	init         Strategy, Cost            — the initial (IM) design
//	candidate    Iter, Index, Cost, Feasible — one examined MH alternative
//	move         Iter, Index, Cost         — the applied MH transformation
//	stop         Strategy, Note            — MH termination reason
//	sa.best      Chain, Iter, Cost         — a chain found a new best
//	sa.window    Chain, Iter, Accepts, Rejects — cooling-window statistics
//	sa.chain     Chain, Cost               — a chain's final best
//	portfolio.lane Strategy, Chain, Cost, Evaluations, Feasible — a race lane's outcome;
//	             Strategy, Chain, Note "cut" — a lane the zero-objective shortcut cut
//	cluster.unit Strategy, Chain, Cost, Evaluations, Feasible — a dispatched unit's outcome
//	decision     Strategy, Chain, Cost     — the winning design (a cluster's also Evaluations)
//	solve.done   Strategy, Cost, Evaluations
//
// Seq is assigned by the Collector in arrival order (1-based).
type TraceEvent struct {
	Seq         int64   `json:"seq"`
	Kind        string  `json:"kind"`
	Strategy    string  `json:"strategy,omitempty"`
	Chain       int     `json:"chain,omitempty"`
	Iter        int     `json:"iter,omitempty"`
	Index       int     `json:"index,omitempty"`
	Cost        float64 `json:"cost,omitempty"`
	Feasible    bool    `json:"feasible,omitempty"`
	Accepts     int64   `json:"accepts,omitempty"`
	Rejects     int64   `json:"rejects,omitempty"`
	Evaluations int64   `json:"evals,omitempty"`
	Note        string  `json:"note,omitempty"`
}

// Collector is the trace sink: it retains every event of one stream in
// memory and lets readers follow it until Close. The stream is a pure
// function of (problem, options), so one collector serves every reader:
// the SSE subscribers of a job, the trace file incmap writes after the
// solve (WriteJSONL), and the cache hits and followers that share a
// flight leader's events (Adopt). A strategy run that goes on beside
// others, a portfolio lane or an SA restart chain, traces into a
// collector of its own that only the goroutine running it writes, and
// its parent replays the finished runs' Events in index order. Safe for
// concurrent use.
type Collector struct {
	mu      sync.Mutex
	events  []TraceEvent
	done    bool
	waiters []chan struct{}
}

// Trace assigns the event its sequence number, retains it and wakes the
// readers following the stream. Strategies call it only from their
// deterministic serialization points, or on a run's own collector from
// the goroutine running it, so arrival order is the canonical trace
// order. A nil collector discards the event.
func (c *Collector) Trace(ev TraceEvent) {
	if c == nil {
		return
	}
	c.mu.Lock()
	ev.Seq = int64(len(c.events)) + 1
	c.events = append(c.events, ev)
	c.wakeLocked()
	c.mu.Unlock()
}

// Adopt makes events, another collector's Events, this collector's
// stream without copying them: a cache hit shares its leader's trace.
// The collector must not have recorded anything yet.
func (c *Collector) Adopt(events []TraceEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) != 0 {
		panic("obs: Adopt on a collector that has recorded events")
	}
	c.events = events
	c.wakeLocked()
}

// Close marks the stream complete and wakes every reader.
func (c *Collector) Close() {
	c.mu.Lock()
	c.done = true
	c.wakeLocked()
	c.mu.Unlock()
}

func (c *Collector) wakeLocked() {
	for _, ch := range c.waiters {
		close(ch)
	}
	c.waiters = c.waiters[:0]
}

// Events returns the events collected so far in arrival order, nil on a
// nil collector. The slice is shared, not copied: callers must not
// modify it. Its capacity equals its length, so neither a later Trace
// nor a caller's append writes into what another reader sees.
func (c *Collector) Events() []TraceEvent {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events[:len(c.events):len(c.events)]
}

// Next returns the events after index from (shared like Events), whether
// the stream is closed, and, when there is nothing new and the stream is
// still open, a channel that closes on the next event or on Close.
func (c *Collector) Next(from int) (evs []TraceEvent, done bool, wait <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.events); from < n {
		return c.events[from:n:n], c.done, nil
	}
	if c.done {
		return nil, true, nil
	}
	ch := make(chan struct{})
	c.waiters = append(c.waiters, ch)
	return nil, false, ch
}

// WriteJSONL renders events as JSON lines, one event per line: the trace
// file format ReadTrace decodes.
func WriteJSONL(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace decodes a JSONL trace stream. It fails on the first
// malformed line, reporting its position.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	var events []TraceEvent
	dec := json.NewDecoder(r)
	for {
		var ev TraceEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: trace event %d: %w", len(events)+1, err)
		}
		events = append(events, ev)
	}
}

// OnCostCurve reports whether an event of this kind records a design the
// search committed to or improved on (init, move, sa.best, decision):
// one point of the cost curve.
func OnCostCurve(kind string) bool {
	switch kind {
	case "init", "move", "sa.best", "decision":
		return true
	}
	return false
}

// CostCurve extracts the cost trajectory of a trace: the Cost of every
// event on the cost curve (OnCostCurve). Feed it to textplot.Convergence
// to render the cost-vs-iteration curve.
func CostCurve(events []TraceEvent) []float64 {
	var costs []float64
	for _, ev := range events {
		if OnCostCurve(ev.Kind) {
			costs = append(costs, ev.Cost)
		}
	}
	return costs
}

// FinalCost returns the cost recorded by the last solve.done event, and
// whether one exists — the replay check: a trace's final cost must equal
// the Solve call's reported objective.
func FinalCost(events []TraceEvent) (float64, bool) {
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Kind == "solve.done" {
			return events[i].Cost, true
		}
	}
	return 0, false
}
