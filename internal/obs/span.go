package obs

// Request-scoped spans: the per-request complement to the aggregate
// instruments. Every HTTP request carries a RequestTrace in its
// context; instrumented stages open spans against it (queue wait, cache
// lookup, solve, commit phases, portfolio lanes) and the serve layer's
// ring-buffered SpanRecorder keeps the last N completed requests for
// the /v1/debug/requests surface.
//
// Determinism rule: span STRUCTURE — names, parentage, sibling order,
// attribute keys/values other than durations — must be a pure function
// of (request, problem, options), identical at any parallelism. Spans
// are therefore only started from deterministic serialization points
// (the sequential request goroutine, the portfolio's pre-launch lane
// loop), never from racing workers. Span IDs are derived by chaining
// FNV-1a over parent ID, span name and child index, rooted at the
// request correlation ID, so the whole tree of IDs is reproducible from
// the request ID alone. Only StartNS/DurationNS vary run to run.
//
// Like the rest of the package the layer is free when off: StartSpan on
// a context without a trace returns a nil *Span whose methods are
// no-ops and performs zero allocations.

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings so the
// snapshot form stays trivially JSON-stable.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage of a request. Create with RequestTrace.Start
// or the context helper StartSpan; a nil *Span is a valid no-op sink.
type Span struct {
	rt       *RequestTrace
	id       string
	parent   string // parent span ID, "" for roots
	name     string
	seq      int // start order within the trace
	children int // child count, for deterministic child IDs

	start   time.Time
	startNS int64 // offset from trace start

	mu         sync.Mutex
	attrs      []Attr
	durationNS int64
	ended      bool
}

// ID returns the span's deterministic ID; "" on nil.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// SetAttr annotates the span. Attributes participate in the golden
// span-structure guarantee: only record values that are deterministic
// for the request (never durations, goroutine IDs, or timestamps).
// No-op on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End stamps the span's duration. Idempotent; no-op on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.durationNS = int64(time.Since(s.start))
	}
	s.mu.Unlock()
}

// spanID chains FNV-1a over the base ID, the span name and the child
// index: the deterministic ID scheme that makes a request's whole span
// tree reproducible from its correlation ID.
func spanID(base, name string, child int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s#%d", base, name, child)
	return fmt.Sprintf("%016x", h.Sum64())
}

// RequestTrace collects the spans of one request. Create with
// NewRequestTrace; a nil trace is a valid "tracing off" trace whose
// Start returns nil spans.
type RequestTrace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	roots int
	spans []*Span
}

// NewRequestTrace starts an empty trace for the given request
// correlation ID.
func NewRequestTrace(requestID string) *RequestTrace {
	return &RequestTrace{id: requestID, start: time.Now()}
}

// ID returns the request correlation ID; "" on nil.
func (rt *RequestTrace) ID() string {
	if rt == nil {
		return ""
	}
	return rt.id
}

// Start opens a new span under parent (nil for a root span). The span's
// ID is derived from the parent chain and its sibling index, and its
// seq records start order — both deterministic as long as Start is only
// called from deterministic serialization points. Returns nil on a nil
// trace.
func (rt *RequestTrace) Start(parent *Span, name string) *Span {
	if rt == nil {
		return nil
	}
	now := time.Now()
	rt.mu.Lock()
	base := rt.id
	parentID := ""
	var child int
	if parent != nil {
		base = parent.id
		parentID = parent.id
		child = parent.children
		parent.children++
	} else {
		child = rt.roots
		rt.roots++
	}
	sp := &Span{
		rt:      rt,
		id:      spanID(base, name, child),
		parent:  parentID,
		name:    name,
		seq:     len(rt.spans),
		start:   now,
		startNS: int64(now.Sub(rt.start)),
	}
	rt.spans = append(rt.spans, sp)
	rt.mu.Unlock()
	return sp
}

// AttachRemote grafts a snapshot of spans recorded on another node into
// this trace under parent: the cross-node complement of CopyTrace. The
// remote spans keep their own (deterministic) IDs and internal
// parentage; only roots — spans whose parent is absent from the slice —
// are re-parented onto parent's ID. Every grafted span receives
// extraAttrs (e.g. worker="w1"), overriding same-key attrs from the
// remote side. Seq numbering continues from this trace's counter, so
// the grafted subtree sorts after everything recorded before the graft.
// No-op on a nil trace.
func (rt *RequestTrace) AttachRemote(parent *Span, spans []SpanSnapshot, extraAttrs map[string]string) {
	if rt == nil || len(spans) == 0 {
		return
	}
	local := make(map[string]bool, len(spans))
	for _, ss := range spans {
		local[ss.ID] = true
	}
	keys := make([]string, 0, len(extraAttrs))
	for k := range extraAttrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, ss := range spans {
		parentID := ss.Parent
		if parentID == "" || !local[parentID] {
			parentID = parent.ID()
		}
		sp := &Span{
			rt:         rt,
			id:         ss.ID,
			parent:     parentID,
			name:       ss.Name,
			seq:        len(rt.spans),
			start:      rt.start,
			startNS:    ss.StartNS,
			durationNS: ss.DurationNS,
			ended:      ss.DurationNS >= 0,
		}
		akeys := make([]string, 0, len(ss.Attrs))
		for k := range ss.Attrs {
			if _, shadowed := extraAttrs[k]; !shadowed {
				akeys = append(akeys, k)
			}
		}
		sort.Strings(akeys)
		for _, k := range akeys {
			sp.attrs = append(sp.attrs, Attr{Key: k, Value: ss.Attrs[k]})
		}
		for _, k := range keys {
			sp.attrs = append(sp.attrs, Attr{Key: k, Value: extraAttrs[k]})
		}
		rt.spans = append(rt.spans, sp)
	}
}

// SpanSnapshot is the exported form of one span.
type SpanSnapshot struct {
	ID         string            `json:"id"`
	Parent     string            `json:"parent,omitempty"`
	Name       string            `json:"name"`
	Seq        int               `json:"seq"`
	StartNS    int64             `json:"start_ns"`
	DurationNS int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Snapshot exports every span in start (seq) order. Unfinished spans
// report DurationNS -1 so a half-done detached job is distinguishable
// from an instantaneous stage. Nil traces yield nil.
func (rt *RequestTrace) Snapshot() []SpanSnapshot {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	spans := append([]*Span(nil), rt.spans...)
	rt.mu.Unlock()
	out := make([]SpanSnapshot, len(spans))
	for i, sp := range spans {
		sp.mu.Lock()
		ss := SpanSnapshot{
			ID:         sp.id,
			Parent:     sp.parent,
			Name:       sp.name,
			Seq:        sp.seq,
			StartNS:    sp.startNS,
			DurationNS: -1,
		}
		if sp.ended {
			ss.DurationNS = sp.durationNS
		}
		if len(sp.attrs) > 0 {
			ss.Attrs = make(map[string]string, len(sp.attrs))
			for _, a := range sp.attrs {
				ss.Attrs[a.Key] = a.Value
			}
		}
		sp.mu.Unlock()
		out[i] = ss
	}
	return out
}

// SpanNode is one node of a rebuilt span tree, children in seq order.
type SpanNode struct {
	SpanSnapshot
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree rebuilds the forest from a flat snapshot. Roots and
// children come back in seq (start) order; spans whose parent is
// missing from the slice are promoted to roots rather than dropped.
func BuildSpanTree(spans []SpanSnapshot) []*SpanNode {
	sorted := append([]SpanSnapshot(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	nodes := make(map[string]*SpanNode, len(sorted))
	var roots []*SpanNode
	for _, ss := range sorted {
		nodes[ss.ID] = &SpanNode{SpanSnapshot: ss}
	}
	for _, ss := range sorted {
		n := nodes[ss.ID]
		if p, ok := nodes[ss.Parent]; ok && ss.Parent != "" && ss.Parent != ss.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// StructureString renders the forest's deterministic skeleton — names,
// nesting, sibling order, IDs and sorted attrs, never timings — one
// span per line. This is the byte-stable form the golden
// span-determinism test pins across parallelism levels.
func StructureString(roots []*SpanNode) string {
	var b strings.Builder
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Name)
		b.WriteString(" id=")
		b.WriteString(n.ID)
		if len(n.Attrs) > 0 {
			keys := make([]string, 0, len(n.Attrs))
			for k := range n.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, n.Attrs[k])
			}
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// Context plumbing. Two context keys: the trace (request-wide) and the
// current span (the parent for StartSpan). Both absent means tracing is
// off and every helper is a zero-alloc no-op.

type traceCtxKey struct{}
type spanCtxKey struct{}

// ContextWithTrace attaches a request trace to ctx.
func ContextWithTrace(ctx context.Context, rt *RequestTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, rt)
}

// TraceFrom returns the request trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *RequestTrace {
	if ctx == nil {
		return nil
	}
	rt, _ := ctx.Value(traceCtxKey{}).(*RequestTrace)
	return rt
}

// SpanFrom returns the current span attached to ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// RequestIDFrom returns the correlation ID of the trace on ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	return TraceFrom(ctx).ID()
}

// StartSpan opens a span named name under the context's current span
// (or as a root) and returns a derived context carrying it as the new
// parent. With no trace on ctx it returns (ctx, nil) without
// allocating, so instrumented paths stay free when tracing is off.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	rt := TraceFrom(ctx)
	if rt == nil {
		return ctx, nil
	}
	sp := rt.Start(SpanFrom(ctx), name)
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// CopyTrace carries the trace and current span of src onto dst: the
// bridge for detached work that must outlive the request's cancellation
// (a detached job running under the server's base context) while still
// recording into the request's trace.
func CopyTrace(dst, src context.Context) context.Context {
	rt := TraceFrom(src)
	if rt == nil {
		return dst
	}
	dst = context.WithValue(dst, traceCtxKey{}, rt)
	if sp := SpanFrom(src); sp != nil {
		dst = context.WithValue(dst, spanCtxKey{}, sp)
	}
	return dst
}

// RequestRecord is one completed (or detached, still-running) request
// held by the SpanRecorder ring. The trace pointer is retained so spans
// ended after the HTTP response — a detached job's solve — appear when
// the record is later snapshotted.
type RequestRecord struct {
	rt         *RequestTrace
	Method     string
	Path       string
	Status     int
	Start      time.Time
	DurationNS int64
}

// RequestDoc is the JSON form served by /v1/debug/requests.
type RequestDoc struct {
	ID         string      `json:"id"`
	Method     string      `json:"method"`
	Path       string      `json:"path"`
	Status     int         `json:"status"`
	Start      time.Time   `json:"start"`
	DurationNS int64       `json:"duration_ns"`
	Spans      []*SpanNode `json:"spans"`
}

// Spans snapshots the record's trace flat, in seq order: the form a
// cluster worker's job document carries for the coordinator to graft
// with AttachRemote.
func (r RequestRecord) Spans() []SpanSnapshot { return r.rt.Snapshot() }

// Doc snapshots the record's trace into its JSON form.
func (r RequestRecord) Doc() RequestDoc {
	return RequestDoc{
		ID:         r.rt.ID(),
		Method:     r.Method,
		Path:       r.Path,
		Status:     r.Status,
		Start:      r.Start,
		DurationNS: r.DurationNS,
		Spans:      BuildSpanTree(r.rt.Snapshot()),
	}
}

// SpanRecorder is a fixed-capacity ring of the most recent request
// records, newest evicting oldest. A nil recorder drops everything.
// Safe for concurrent use.
type SpanRecorder struct {
	mu   sync.Mutex
	recs []RequestRecord // the ring: grows to its capacity, then slots are overwritten
	next int             // slot the next new record takes; once full, the oldest
	byID map[string]int  // request ID -> slot in recs
}

// NewSpanRecorder returns a recorder keeping the last capacity
// requests; capacity <= 0 yields a nil (drop-everything) recorder.
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		return nil
	}
	return &SpanRecorder{recs: make([]RequestRecord, 0, capacity), byID: map[string]int{}}
}

// Record adds one finished request, overwriting the oldest past
// capacity. Re-recording an ID replaces the earlier record in place.
// No-op on a nil recorder or a record without a trace.
func (sr *SpanRecorder) Record(rec RequestRecord) {
	if sr == nil || rec.rt == nil || rec.rt.ID() == "" {
		return
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if i, ok := sr.byID[rec.rt.ID()]; ok {
		sr.recs[i] = rec
		return
	}
	if len(sr.recs) < cap(sr.recs) {
		sr.recs = append(sr.recs, rec)
	} else {
		delete(sr.byID, sr.recs[sr.next].rt.ID())
		sr.recs[sr.next] = rec
	}
	sr.byID[rec.rt.ID()] = sr.next
	sr.next = (sr.next + 1) % cap(sr.recs)
}

// NewRecord builds a RequestRecord for the given trace; exported so the
// serve layer does not reach into the struct's unexported trace field.
func NewRecord(rt *RequestTrace, method, path string, status int, start time.Time, duration time.Duration) RequestRecord {
	return RequestRecord{rt: rt, Method: method, Path: path, Status: status, Start: start, DurationNS: int64(duration)}
}

// Get returns the record for a request ID.
func (sr *SpanRecorder) Get(id string) (RequestRecord, bool) {
	if sr == nil {
		return RequestRecord{}, false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	i, ok := sr.byID[id]
	if !ok {
		return RequestRecord{}, false
	}
	return sr.recs[i], true
}

// List returns the retained records newest first.
func (sr *SpanRecorder) List() []RequestRecord {
	if sr == nil {
		return nil
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	n := len(sr.recs)
	out := make([]RequestRecord, n)
	for i := range out {
		out[i] = sr.recs[(sr.next-1-i+n)%n]
	}
	return out
}
