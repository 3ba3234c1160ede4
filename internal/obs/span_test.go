package obs

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"
)

// buildTrace opens a small deterministic span tree against one trace:
// request -> (queue.wait, core.solve -> 2 lanes, cache.lookup).
func buildTrace(id string) *RequestTrace {
	rt := NewRequestTrace(id)
	root := rt.Start(nil, "request")
	rt.Start(root, "queue.wait").End()
	solve := rt.Start(root, "core.solve")
	solve.SetAttr("strategy", "portfolio")
	for i := 0; i < 2; i++ {
		lane := rt.Start(solve, "portfolio.lane")
		lane.SetAttr("lane", string(rune('0'+i)))
		lane.End()
	}
	solve.End()
	rt.Start(root, "cache.lookup").End()
	root.End()
	return rt
}

func TestSpanIDsDeterministic(t *testing.T) {
	a := buildTrace("req-000001")
	b := buildTrace("req-000001")
	other := buildTrace("req-000002")

	sa := StructureString(BuildSpanTree(a.Snapshot()))
	sb := StructureString(BuildSpanTree(b.Snapshot()))
	so := StructureString(BuildSpanTree(other.Snapshot()))
	if sa != sb {
		t.Errorf("same request ID produced different structures:\n%s\nvs\n%s", sa, sb)
	}
	if sa == so {
		t.Error("different request IDs produced identical span IDs")
	}
	// Sibling spans with the same name must still get distinct IDs
	// (child index participates in the derivation).
	snap := a.Snapshot()
	ids := map[string]bool{}
	for _, ss := range snap {
		if ids[ss.ID] {
			t.Fatalf("duplicate span ID %s", ss.ID)
		}
		ids[ss.ID] = true
	}
}

func TestSpanTreeShape(t *testing.T) {
	rt := buildTrace("req-000007")
	roots := BuildSpanTree(rt.Snapshot())
	if len(roots) != 1 || roots[0].Name != "request" {
		t.Fatalf("roots = %+v", roots)
	}
	kids := roots[0].Children
	if len(kids) != 3 {
		t.Fatalf("request children = %d, want 3", len(kids))
	}
	for i, want := range []string{"queue.wait", "core.solve", "cache.lookup"} {
		if kids[i].Name != want {
			t.Errorf("child %d = %q, want %q (seq order)", i, kids[i].Name, want)
		}
	}
	if n := len(kids[1].Children); n != 2 {
		t.Errorf("solve lanes = %d, want 2", n)
	}
	if got := kids[1].Attrs["strategy"]; got != "portfolio" {
		t.Errorf("strategy attr = %q", got)
	}
}

func TestSpanUnfinishedAndIdempotentEnd(t *testing.T) {
	rt := NewRequestTrace("req-000003")
	sp := rt.Start(nil, "open")
	snap := rt.Snapshot()
	if snap[0].DurationNS != -1 {
		t.Errorf("unfinished DurationNS = %d, want -1", snap[0].DurationNS)
	}
	sp.End()
	d := rt.Snapshot()[0].DurationNS
	if d < 0 {
		t.Fatalf("ended DurationNS = %d", d)
	}
	time.Sleep(time.Millisecond)
	sp.End() // second End must not restamp
	if again := rt.Snapshot()[0].DurationNS; again != d {
		t.Errorf("End not idempotent: %d then %d", d, again)
	}
	// SetAttr replaces in place rather than appending duplicates.
	sp.SetAttr("k", "a")
	sp.SetAttr("k", "b")
	if attrs := rt.Snapshot()[0].Attrs; len(attrs) != 1 || attrs["k"] != "b" {
		t.Errorf("attrs = %v", attrs)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var rt *RequestTrace
	if rt.ID() != "" || rt.Snapshot() != nil {
		t.Error("nil trace leaks state")
	}
	sp := rt.Start(nil, "x")
	if sp != nil {
		t.Fatal("nil trace returned a span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if sp.ID() != "" {
		t.Error("nil span has an ID")
	}
}

func TestStartSpanContext(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("StartSpan without a trace returned a span")
	}
	if ctx != context.Background() {
		t.Error("StartSpan without a trace derived a new context")
	}

	rt := NewRequestTrace("req-000004")
	ctx = ContextWithTrace(context.Background(), rt)
	if TraceFrom(ctx) != rt || RequestIDFrom(ctx) != "req-000004" {
		t.Fatal("trace not attached")
	}
	ctx, root := StartSpan(ctx, "request")
	_, child := StartSpan(ctx, "stage")
	snap := rt.Snapshot()
	if len(snap) != 2 || snap[1].Parent != root.ID() {
		t.Errorf("child parentage wrong: %+v", snap)
	}
	if SpanFrom(ctx) != root {
		t.Error("derived ctx does not carry the new parent")
	}
	child.End()
	root.End()

	// CopyTrace carries trace+span onto an unrelated context.
	dst := CopyTrace(context.Background(), ctx)
	if TraceFrom(dst) != rt || SpanFrom(dst) != root {
		t.Error("CopyTrace dropped trace or span")
	}
	if got := CopyTrace(context.Background(), context.Background()); got != context.Background() {
		t.Error("CopyTrace without a trace derived a new context")
	}
}

// TestStartSpanOffPathZeroAllocs pins the free-when-off contract for the
// span layer: instrumented hot paths pay nothing when tracing is off.
func TestStartSpanOffPathZeroAllocs(t *testing.T) {
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "hot")
		sp.SetAttr("k", "v")
		sp.End()
	}); allocs != 0 {
		t.Fatalf("StartSpan without a trace allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSpanRecorderRing(t *testing.T) {
	sr := NewSpanRecorder(2)
	rec := func(id string) RequestRecord {
		return NewRecord(NewRequestTrace(id), "GET", "/x", 200, time.Now(), time.Millisecond)
	}
	sr.Record(rec("a"))
	sr.Record(rec("b"))
	sr.Record(rec("c")) // evicts a
	if _, ok := sr.Get("a"); ok {
		t.Error("oldest record not evicted")
	}
	if _, ok := sr.Get("b"); !ok {
		t.Error("record b lost (eviction corrupted the index)")
	}
	list := sr.List()
	if len(list) != 2 || list[0].rt.ID() != "c" || list[1].rt.ID() != "b" {
		t.Errorf("List order wrong: %v", []string{list[0].rt.ID(), list[1].rt.ID()})
	}
	// Re-recording an ID replaces in place (detached jobs re-record on
	// completion) instead of duplicating.
	upd := rec("b")
	upd.Status = 500
	sr.Record(upd)
	if got, _ := sr.Get("b"); got.Status != 500 {
		t.Error("re-record did not replace")
	}
	if len(sr.List()) != 2 {
		t.Error("re-record duplicated the entry")
	}

	if nilRec := NewSpanRecorder(0); nilRec != nil {
		t.Error("capacity 0 should yield the nil recorder")
	}
	var nilSR *SpanRecorder
	nilSR.Record(rec("x"))
	if nilSR.List() != nil {
		t.Error("nil recorder retained a record")
	}
}

// TestSpanRecorderRingWraps: past capacity the ring overwrites its
// oldest slot, so after ten records into three slots the last three
// remain, a re-record replaces in place, and List stays newest first.
func TestSpanRecorderRingWraps(t *testing.T) {
	sr := NewSpanRecorder(3)
	rec := func(id string, status int) RequestRecord {
		return NewRecord(NewRequestTrace(id), "GET", "/x", status, time.Now(), time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		sr.Record(rec(fmt.Sprintf("r%d", i), 200))
	}
	sr.Record(rec("r8", 500))
	for i := 0; i < 10; i++ {
		got, ok := sr.Get(fmt.Sprintf("r%d", i))
		if ok != (i >= 7) {
			t.Errorf("Get(r%d) found = %v, want %v", i, ok, i >= 7)
		}
		want := 200
		if i == 8 {
			want = 500
		}
		if ok && got.Status != want {
			t.Errorf("Get(r%d).Status = %d, want %d", i, got.Status, want)
		}
	}
	var ids []string
	for _, r := range sr.List() {
		ids = append(ids, r.rt.ID())
	}
	if want := []string{"r9", "r8", "r7"}; !slices.Equal(ids, want) {
		t.Errorf("List = %v, want %v", ids, want)
	}
}

func TestRequestRecordDoc(t *testing.T) {
	rt := buildTrace("req-000009")
	doc := NewRecord(rt, "POST", "/v1/solve", 200, time.Now(), 5*time.Millisecond).Doc()
	if doc.ID != "req-000009" || doc.Method != "POST" || doc.Status != 200 {
		t.Errorf("doc header = %+v", doc)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "request" {
		t.Errorf("doc spans = %+v", doc.Spans)
	}
}
