package cache

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// req is the request whose body is key: the tests' stand-in for a
// posted system.
func req(key string) Request { return Request{Body: []byte(key)} }

// keep leads a fresh flight for r and completes it with keep, reporting
// whether that evicted another result.
func keep(t testing.TB, tb *Table, r Request, val any) bool {
	t.Helper()
	f, leader := tb.Join(context.Background(), r)
	if !leader {
		t.Fatalf("Join(%.20q) joined an existing flight", r.Body)
	}
	kept, evicted := f.Complete(val, nil, true)
	if !kept {
		t.Fatalf("Complete(%.20q) did not keep the result", r.Body)
	}
	f.Leave()
	return evicted
}

// lookup joins r and returns its kept result, if any; a request without
// one is released again.
func lookup(tb *Table, r Request) (any, bool) {
	f, leader := tb.Join(context.Background(), r)
	defer f.Leave()
	if leader {
		f.Complete(nil, nil, false)
		return nil, false
	}
	v, _ := f.Result()
	return v, true
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	tb := NewTable(2)
	if keep(t, tb, req("a"), 1) || keep(t, tb, req("b"), 2) {
		t.Fatal("eviction reported while under capacity")
	}
	if v, ok := lookup(tb, req("a")); !ok || v != 1 {
		t.Fatalf("lookup(a) = %v, %v", v, ok)
	}
	// "b" is now least recently joined; keeping "c" must evict it.
	if !keep(t, tb, req("c"), 3) {
		t.Fatal("keeping c did not report an eviction")
	}
	if _, ok := lookup(tb, req("b")); ok {
		t.Error("b survived eviction")
	}
	if _, ok := lookup(tb, req("a")); !ok {
		t.Error("a was evicted despite being recently joined")
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tb.Len())
	}
}

// TestLRUPutReportsEvictions pins the eviction report callers count
// in their own instruments: exactly one per displaced result, none for
// results kept under capacity or for joins of a kept key.
func TestLRUPutReportsEvictions(t *testing.T) {
	tb := NewTable(2)
	evictions := 0
	for _, k := range []string{"a", "b", "a", "c", "d", "d", "e"} {
		f, leader := tb.Join(context.Background(), req(k))
		if leader {
			if _, evicted := f.Complete(k, nil, true); evicted {
				evictions++
			}
		}
		f.Leave()
	}
	// a, b fill the table; a is joined again; c evicts b; d evicts a;
	// d is joined again; e evicts c.
	if evictions != 3 {
		t.Errorf("Complete reported %d evictions, want 3", evictions)
	}
	for k, want := range map[string]bool{"a": false, "b": false, "c": false, "d": true, "e": true} {
		if _, ok := lookup(tb, req(k)); ok != want {
			t.Errorf("lookup(%s) present = %v, want %v", k, ok, want)
		}
	}
}

func TestLRUZeroCapacityClampsToOne(t *testing.T) {
	tb := NewTable(0)
	keep(t, tb, req("a"), 1)
	if _, ok := lookup(tb, req("a")); !ok {
		t.Fatal("result lost in size-clamped table")
	}
	keep(t, tb, req("b"), 2)
	if _, ok := lookup(tb, req("a")); ok {
		t.Error("capacity-1 table kept two results")
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	tb := NewTable(8)
	const n = 32
	// The leader joins first and completes only after every follower has
	// joined, so all n members genuinely overlap on one flight.
	lead, leader := tb.Join(context.Background(), req("k"))
	if !leader {
		t.Fatal("first Join is not the leader")
	}
	var extraLeaders, solves atomic.Int64
	var joined, wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		joined.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, leader := tb.Join(context.Background(), req("k"))
			if leader {
				extraLeaders.Add(1)
			}
			joined.Done()
			<-f.Done()
			f.Leave()
			v, err := f.Result()
			if err != nil || v != "result" {
				t.Errorf("Result = %v, %v", v, err)
			}
		}()
	}
	joined.Wait()
	solves.Add(1)
	lead.Complete("result", nil, true)
	lead.Leave()
	wg.Wait()
	if extraLeaders.Load() != 0 || solves.Load() != 1 {
		t.Errorf("extra leaders=%d solves=%d, want 0 and 1", extraLeaders.Load(), solves.Load())
	}
}

func TestSingleFlightKeyReleasedAfterComplete(t *testing.T) {
	tb := NewTable(8)
	f1, leader := tb.Join(context.Background(), req("k"))
	if !leader {
		t.Fatal("first Join is not the leader")
	}
	f1.Complete(1, nil, false)
	f1.Leave()
	f2, leader := tb.Join(context.Background(), req("k"))
	if !leader || f2 == f1 {
		t.Fatal("a flight completed without keep still coalesces new joins")
	}
	f2.Complete(2, nil, false)
	f2.Leave()
}

// TestSingleFlightLeaderLeaveKeepsFollowers pins the promotion
// semantics: the leader's departure must not cancel the flight while a
// follower still waits on it.
func TestSingleFlightLeaderLeaveKeepsFollowers(t *testing.T) {
	tb := NewTable(8)
	f, leader := tb.Join(context.Background(), req("k"))
	if !leader {
		t.Fatal("not leader")
	}
	if _, leader2 := tb.Join(context.Background(), req("k")); leader2 {
		t.Fatal("second join elected leader")
	}
	if remaining := f.Leave(); remaining != 1 {
		t.Fatalf("Leave = %d members remaining, want 1", remaining)
	}
	select {
	case <-f.Context().Done():
		t.Fatal("flight cancelled while a follower remains")
	default:
	}
	// The (promoted) follower leaves too: now the work must be cancelled.
	if remaining := f.Leave(); remaining != 0 {
		t.Fatalf("final Leave = %d, want 0", remaining)
	}
	select {
	case <-f.Context().Done():
	case <-time.After(time.Second):
		t.Fatal("flight context not cancelled after the last member left")
	}
}

func TestSingleFlightError(t *testing.T) {
	tb := NewTable(8)
	f, _ := tb.Join(context.Background(), req("k"))
	boom := errors.New("boom")
	if kept, _ := f.Complete(nil, boom, true); kept {
		t.Error("a failed flight was kept")
	}
	f.Leave()
	if _, err := f.Result(); !errors.Is(err, boom) {
		t.Errorf("Result err = %v, want boom", err)
	}
	if _, leader := tb.Join(context.Background(), req("k")); !leader {
		t.Error("a failed flight still holds its key")
	}
}

func TestSingleFlightDistinctKeysDoNotCoalesce(t *testing.T) {
	tb := NewTable(8)
	f1, l1 := tb.Join(context.Background(), req("a"))
	f2, l2 := tb.Join(context.Background(), req("b"))
	if !l1 || !l2 || f1 == f2 {
		t.Fatal("distinct keys coalesced")
	}
	f1.Complete(nil, nil, false)
	f2.Complete(nil, nil, false)
	f1.Leave()
	f2.Leave()
}

// TestCollisionSharesNothing puts two different requests on one
// fingerprint. The second leads a flight of its own whether the first is
// in flight or kept; that flight is never kept, and neither keeping nor
// abandoning it evicts or releases the first, which an identical request
// still joins.
func TestCollisionSharesNothing(t *testing.T) {
	tb := NewTable(1)
	tb.hash = func(Request) uint64 { return 0 }
	a, b := req("a"), req("b")
	fa, leader := tb.Join(context.Background(), a)
	if !leader {
		t.Fatal("first Join is not the leader")
	}
	fb, leader := tb.Join(context.Background(), b)
	if !leader || fb == fa {
		t.Fatal("a colliding request joined another request's in-flight flight")
	}
	if kept, evicted := fb.Complete("b", nil, true); kept || evicted {
		t.Fatalf("completing the in-flight collision = kept %v, evicted %v; want neither", kept, evicted)
	}
	fb.Leave()
	fb, leader = tb.Join(context.Background(), b)
	if !leader || fb == fa {
		t.Fatal("a colliding request joined another request's in-flight flight")
	}
	fb.Leave()
	if fa.Context().Err() != nil {
		t.Fatal("abandoning the collision cancelled the other request's flight")
	}
	if f, leader := tb.Join(context.Background(), req("a")); leader || f != fa {
		t.Fatal("the collision released the other request's in-flight flight")
	}
	fa.Leave()
	if kept, _ := fa.Complete("a", nil, true); !kept {
		t.Fatal("the first request's flight was not kept")
	}
	fa.Leave()

	fb, leader = tb.Join(context.Background(), b)
	if !leader || fb == fa {
		t.Fatal("a colliding request joined another request's kept flight")
	}
	if kept, evicted := fb.Complete("b", nil, true); kept || evicted {
		t.Fatalf("completing the collision = kept %v, evicted %v; want neither", kept, evicted)
	}
	fb.Leave()
	if v, ok := lookup(tb, req("a")); !ok || v != "a" || tb.Len() != 1 {
		t.Fatalf("after the collision, lookup(a) = %v, %v with %d kept; want a, true with 1", v, ok, tb.Len())
	}
	if v, ok := lookup(tb, b); ok {
		t.Fatalf("lookup(b) joined the flight of %v", v)
	}
}

// TestCollisionConcurrentJoins races joins of two requests on one
// fingerprint: whichever leads, every member answers from a flight of
// its own request.
func TestCollisionConcurrentJoins(t *testing.T) {
	tb := NewTable(1)
	tb.hash = func(Request) uint64 { return 0 }
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		key := string(rune('a' + i%2))
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, leader := tb.Join(context.Background(), req(key))
			defer f.Leave()
			if leader {
				f.Complete(key, nil, true)
			}
			<-f.Done()
			if v, err := f.Result(); err != nil || v != key {
				t.Errorf("a request for %s answered from a flight of %v (%v)", key, v, err)
			}
		}()
	}
	wg.Wait()
}

// modelFlight is FuzzTable's plain model of one flight.
type modelFlight struct {
	f            *Flight
	key          string
	refs         int
	landed, kept bool
	val          int
}

// FuzzTable drives random sequences of Join, Complete and Leave over
// three keys and checks the table against a plain model: at most max
// results are kept and Len agrees, the least recently joined result is
// evicted first, a kept key joins landed with its value, and an unkept
// or failed completion or the last member's Leave releases the key.
// With the high bit of data[0] set every key has one fingerprint: a key
// whose fingerprint another key's flight holds then leads a flight the
// table does not hold, which is never shared, never kept and never
// evicts.
func FuzzTable(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0x80, 2, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 1, 0x80, 1, 1, 0x80, 0, 0, 2, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 2, 0, 2, 1, 1, 0xc0, 0, 0})
	f.Add([]byte{0x81, 0, 0, 0, 1, 0, 0, 1, 0x81, 1, 0x80, 0, 1, 1, 0x82, 0, 0, 2, 0, 2, 0, 2, 0, 0, 2, 2, 1, 0, 0})
	f.Add([]byte{0x80, 0, 1, 1, 0x80, 0, 0, 1, 0x81, 0, 1, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{0x82, 0, 0, 0, 1, 2, 1, 0, 0, 1, 0x80, 0, 1, 2, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		max := 1 + int(data[0]&0x7f)%3
		tb := NewTable(max)
		slot := func(key string) string { return key } // the key's fingerprint
		if data[0]&0x80 != 0 {
			tb.hash = func(Request) uint64 { return 0 }
			slot = func(string) string { return "" }
		}
		current := map[string]*modelFlight{} // fingerprint -> the flight the table holds, in flight or kept
		var order []*modelFlight             // kept flights, most recently joined first
		var flights, members []*modelFlight  // every flight; one entry per held membership
		landed := func(m *modelFlight) bool {
			select {
			case <-m.f.Done():
				return true
			default:
				return false
			}
		}
		release := func(m *modelFlight) {
			if current[slot(m.key)] == m {
				delete(current, slot(m.key))
			}
			if i := slices.Index(order, m); i >= 0 {
				order = slices.Delete(order, i, i+1)
			}
			m.kept = false
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%3, data[i+1]
			switch op {
			case 0: // Join
				key := string(rune('a' + arg%3))
				f, leader := tb.Join(context.Background(), req(key))
				m := current[slot(key)]
				if m == nil || m.key != key {
					if !leader {
						t.Fatalf("Join(%s) followed a released key or another key's flight", key)
					}
					n := &modelFlight{f: f, key: key}
					if m == nil {
						current[slot(key)] = n
					}
					m = n
					flights = append(flights, m)
				} else {
					if leader || f != m.f {
						t.Fatalf("Join(%s) led a new flight while one holds the key", key)
					}
					if m.kept {
						order = slices.Insert(slices.DeleteFunc(order, func(o *modelFlight) bool { return o == m }), 0, m)
						if v, err := f.Result(); !landed(m) || err != nil || v != m.val {
							t.Fatalf("Join(%s) of a kept key = landed %v, %v, %v; want %d", key, landed(m), v, err, m.val)
						}
					} else if landed(m) {
						t.Fatalf("Join(%s) of an in-flight key returned a landed flight", key)
					}
				}
				m.refs++
				members = append(members, m)
			case 1: // Complete
				if len(flights) == 0 {
					continue
				}
				m := flights[int(arg&0x3f)%len(flights)]
				var err error
				if arg&0x40 != 0 {
					err = errors.New("failed")
				}
				keepIt := arg&0x80 != 0
				kept, evicted := m.f.Complete(i, err, keepIt)
				wantKept, wantEvicted := false, false
				if !m.landed {
					m.landed = true
					m.val = i
					if keepIt && err == nil && current[slot(m.key)] == m {
						wantKept = true
						if len(order) >= max {
							release(order[len(order)-1])
							wantEvicted = true
						}
						m.kept = true
						order = slices.Insert(order, 0, m)
					} else {
						release(m)
					}
				}
				if kept != wantKept || evicted != wantEvicted {
					t.Fatalf("Complete = kept %v, evicted %v; want %v, %v", kept, evicted, wantKept, wantEvicted)
				}
				if !landed(m) || m.f.Context().Err() == nil {
					t.Fatal("a completed flight is not landed and cancelled")
				}
			case 2: // Leave
				if len(members) == 0 {
					continue
				}
				k := int(arg) % len(members)
				m := members[k]
				members = slices.Delete(members, k, k+1)
				m.refs--
				if got := m.f.Leave(); got != m.refs {
					t.Fatalf("Leave = %d members remaining, want %d", got, m.refs)
				}
				if m.refs == 0 && !m.landed {
					release(m)
					if m.f.Context().Err() == nil {
						t.Fatal("the last member left an in-flight flight without cancelling it")
					}
				}
			}
			if tb.Len() != len(order) || len(order) > max {
				t.Fatalf("Len = %d, model keeps %d (max %d)", tb.Len(), len(order), max)
			}
		}
	})
}
