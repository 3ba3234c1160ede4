package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceEvent is one structured observation of a strategy run. The
// engine emits events only from deterministic serialization points
// (after each MH iteration's parallel reduce, after SA's chains have
// been joined), so for a fixed problem and options the event stream is
// identical at every parallelism level — the golden-trace test pins
// this. Wall-clock quantities deliberately never appear in a trace.
//
// Event kinds and the fields they carry:
//
//	solve.start  Strategy
//	init         Strategy, Cost            — the initial (IM) design
//	candidate    Iter, Index, Cost, Feasible — one examined MH alternative
//	move         Iter, Index, Cost         — the applied MH transformation
//	stop         Iter, Note                — MH termination reason
//	sa.best      Chain, Iter, Cost         — a chain found a new best
//	sa.window    Chain, Iter, Accepts, Rejects — cooling-window statistics
//	sa.chain     Chain, Cost               — a chain's final best
//	portfolio.lane Strategy, Chain, Cost, Evaluations, Feasible — a race lane's outcome
//	decision     Strategy, Chain, Cost     — the winning design
//	solve.done   Strategy, Cost, Evaluations
//
// Seq is assigned by the sink in arrival order (1-based).
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

// Tracer is a sink for trace events. Implementations must be safe for
// concurrent use (several Solve calls may share one sink) and must
// assign Seq themselves.
type Tracer interface {
	Trace(ev TraceEvent)
}

// JSONLWriter encodes each event as one JSON line. Create with
// NewJSONLWriter; call Flush before closing the underlying writer.
type JSONLWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	seq int64
	err error
}

// NewJSONLWriter returns a tracer writing JSONL to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Trace writes one event line. The first encoding error is retained
// (see Err); later events are still attempted so a full trace after a
// transient error stays mostly intact.
func (t *JSONLWriter) Trace(ev TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	if err := t.enc.Encode(ev); err != nil && t.err == nil {
		t.err = err
	}
}

// Flush drains the internal buffer and returns the first error seen.
func (t *JSONLWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Err returns the first error encountered while writing.
func (t *JSONLWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Collector retains events in memory; the test and plotting sink.
type Collector struct {
	mu     sync.Mutex
	events []TraceEvent
}

// Trace appends one event.
func (c *Collector) Trace(ev TraceEvent) {
	c.mu.Lock()
	ev.Seq = int64(len(c.events)) + 1
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of the collected events in arrival order.
func (c *Collector) Events() []TraceEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TraceEvent(nil), c.events...)
}

// MultiTracer fans each event out to several sinks.
func MultiTracer(sinks ...Tracer) Tracer { return multiTracer(sinks) }

type multiTracer []Tracer

func (m multiTracer) Trace(ev TraceEvent) {
	for _, t := range m {
		t.Trace(ev)
	}
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
