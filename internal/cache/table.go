package cache

import (
	"container/list"
	"context"
	"sync"
)

// Table is the one table of solve results, keyed by fingerprint: every
// key maps to at most one Flight, which is either in flight (a leader is
// running the work and its members wait) or landed and kept (the key's
// stored result). The first Join of a key makes the caller the leader;
// later Joins share its flight, and once a leader Completes with keep
// they find it already landed. At most max flights are kept; keeping one
// more evicts the least recently joined.
//
// Membership is reference counted and an in-flight flight owns a
// cancellable context: its work is cancelled only when the *last*
// member leaves, so a leader whose client disconnects does not kill the
// work its followers are still waiting on. The table is value-agnostic
// (the serve layer keeps its solution entries in it); callers count
// outcomes in their own instruments.
type Table struct {
	// All Flight state is guarded by the owning table's mutex; flights
	// are few and short-lived, so one lock is simpler and plenty.
	mu      sync.Mutex
	max     int
	flights map[string]*Flight
	kept    *list.List // kept flights; front = most recently joined
}

// NewTable returns a table that keeps at most max results. max must be
// positive; callers gate "cache disabled" before construction.
func NewTable(max int) *Table {
	if max <= 0 {
		max = 1
	}
	return &Table{max: max, flights: make(map[string]*Flight), kept: list.New()}
}

// Flight is one unit of coalesced work: in flight until its leader
// Completes it, then landed.
type Flight struct {
	t      *Table
	key    string
	ctx    context.Context
	cancel context.CancelFunc

	refs   int
	landed bool
	kept   *list.Element // non-nil while the flight is its key's kept result
	done   chan struct{}
	val    any
	err    error
}

// Join returns the flight for key and whether the caller leads it. A
// kept result comes back landed (Done already closed) and becomes the
// most recently joined; an in-flight one is shared; otherwise the caller
// leads a new flight, whose context derives from base, and must
// Complete it.
func (t *Table) Join(base context.Context, key string) (*Flight, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.flights[key]; ok {
		f.refs++
		if f.kept != nil {
			t.kept.MoveToFront(f.kept)
		}
		return f, false
	}
	ctx, cancel := context.WithCancel(base)
	f := &Flight{
		t:      t,
		key:    key,
		ctx:    ctx,
		cancel: cancel,
		refs:   1,
		done:   make(chan struct{}),
	}
	t.flights[key] = f
	return f, true
}

// Len returns the number of kept results.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kept.Len()
}

// Context is the flight's work context. The leader's work must run
// under it (not the leader's request context) so the work survives the
// leader leaving while followers remain.
func (f *Flight) Context() context.Context { return f.ctx }

// Done is closed when the flight lands.
func (f *Flight) Done() <-chan struct{} { return f.done }

// Result returns the landed flight's outcome, and nil, nil while the
// flight is in the air.
func (f *Flight) Result() (any, error) {
	f.t.mu.Lock()
	defer f.t.mu.Unlock()
	return f.val, f.err
}

// Leave drops the caller's membership and returns the remaining member
// count. When the last member leaves a flight that has not landed, the
// flight's context is cancelled — the work winds down to best-so-far
// exactly as a lone request's disconnect would — and the key is
// released so a new request starts fresh rather than joining an
// abandoned flight.
func (f *Flight) Leave() int {
	f.t.mu.Lock()
	defer f.t.mu.Unlock()
	f.refs--
	if f.refs <= 0 && !f.landed {
		f.cancel()
		f.t.release(f)
	}
	return f.refs
}

// Complete lands the flight with its outcome and wakes every member.
// With keep, a successful flight that still holds its key stays as the
// key's result, evicting the least recently joined kept result when the
// table is full; otherwise the key is released, so the next Join leads
// afresh. It reports whether the flight was kept and whether keeping it
// evicted another. Only the first Complete counts.
func (f *Flight) Complete(val any, err error, keep bool) (kept, evicted bool) {
	t := f.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if f.landed {
		return false, false
	}
	f.landed = true
	f.val, f.err = val, err
	close(f.done)
	f.cancel()
	if !keep || err != nil || t.flights[f.key] != f {
		t.release(f)
		return false, false
	}
	if t.kept.Len() >= t.max {
		t.release(t.kept.Back().Value.(*Flight))
		evicted = true
	}
	f.kept = t.kept.PushFront(f)
	return true, evicted
}

// release removes f from the table if it still holds its key. The
// caller holds t.mu.
func (t *Table) release(f *Flight) {
	if t.flights[f.key] != f {
		return
	}
	delete(t.flights, f.key)
	if f.kept != nil {
		t.kept.Remove(f.kept)
		f.kept = nil
	}
}
