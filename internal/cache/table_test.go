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

// keep leads a fresh flight for key and completes it with keep,
// reporting whether that evicted another result.
func keep(t *testing.T, tb *Table, key string, val any) bool {
	t.Helper()
	f, leader := tb.Join(context.Background(), key)
	if !leader {
		t.Fatalf("Join(%s) joined an existing flight", key)
	}
	kept, evicted := f.Complete(val, nil, true)
	if !kept {
		t.Fatalf("Complete(%s) did not keep the result", key)
	}
	f.Leave()
	return evicted
}

// lookup joins key and returns its kept result, if any; a key without
// one is released again.
func lookup(tb *Table, key string) (any, bool) {
	f, leader := tb.Join(context.Background(), key)
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
	if keep(t, tb, "a", 1) || keep(t, tb, "b", 2) {
		t.Fatal("eviction reported while under capacity")
	}
	if v, ok := lookup(tb, "a"); !ok || v != 1 {
		t.Fatalf("lookup(a) = %v, %v", v, ok)
	}
	// "b" is now least recently joined; keeping "c" must evict it.
	if !keep(t, tb, "c", 3) {
		t.Fatal("keeping c did not report an eviction")
	}
	if _, ok := lookup(tb, "b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := lookup(tb, "a"); !ok {
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
		f, leader := tb.Join(context.Background(), k)
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
		if _, ok := lookup(tb, k); ok != want {
			t.Errorf("lookup(%s) present = %v, want %v", k, ok, want)
		}
	}
}

func TestLRUZeroCapacityClampsToOne(t *testing.T) {
	tb := NewTable(0)
	keep(t, tb, "a", 1)
	if _, ok := lookup(tb, "a"); !ok {
		t.Fatal("result lost in size-clamped table")
	}
	keep(t, tb, "b", 2)
	if _, ok := lookup(tb, "a"); ok {
		t.Error("capacity-1 table kept two results")
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	tb := NewTable(8)
	const n = 32
	// The leader joins first and completes only after every follower has
	// joined, so all n members genuinely overlap on one flight.
	lead, leader := tb.Join(context.Background(), "k")
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
			f, leader := tb.Join(context.Background(), "k")
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
	f1, leader := tb.Join(context.Background(), "k")
	if !leader {
		t.Fatal("first Join is not the leader")
	}
	f1.Complete(1, nil, false)
	f1.Leave()
	f2, leader := tb.Join(context.Background(), "k")
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
	f, leader := tb.Join(context.Background(), "k")
	if !leader {
		t.Fatal("not leader")
	}
	if _, leader2 := tb.Join(context.Background(), "k"); leader2 {
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
	f, _ := tb.Join(context.Background(), "k")
	boom := errors.New("boom")
	if kept, _ := f.Complete(nil, boom, true); kept {
		t.Error("a failed flight was kept")
	}
	f.Leave()
	if _, err := f.Result(); !errors.Is(err, boom) {
		t.Errorf("Result err = %v, want boom", err)
	}
	if _, leader := tb.Join(context.Background(), "k"); !leader {
		t.Error("a failed flight still holds its key")
	}
}

func TestSingleFlightDistinctKeysDoNotCoalesce(t *testing.T) {
	tb := NewTable(8)
	f1, l1 := tb.Join(context.Background(), "a")
	f2, l2 := tb.Join(context.Background(), "b")
	if !l1 || !l2 || f1 == f2 {
		t.Fatal("distinct keys coalesced")
	}
	f1.Complete(nil, nil, false)
	f2.Complete(nil, nil, false)
	f1.Leave()
	f2.Leave()
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
func FuzzTable(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0x80, 2, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 1, 0x80, 1, 1, 0x80, 0, 0, 2, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 2, 0, 2, 1, 1, 0xc0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		max := 1 + int(data[0]%3)
		tb := NewTable(max)
		current := map[string]*modelFlight{} // key -> its flight, in flight or kept
		var order []string                   // kept keys, most recently joined first
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
			if current[m.key] == m {
				delete(current, m.key)
			}
			if i := slices.Index(order, m.key); i >= 0 && m.kept {
				order = slices.Delete(order, i, i+1)
			}
			m.kept = false
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%3, data[i+1]
			switch op {
			case 0: // Join
				key := string(rune('a' + arg%3))
				f, leader := tb.Join(context.Background(), key)
				m := current[key]
				if m == nil {
					if !leader {
						t.Fatalf("Join(%s) followed a released key", key)
					}
					m = &modelFlight{f: f, key: key}
					current[key] = m
					flights = append(flights, m)
				} else {
					if leader || f != m.f {
						t.Fatalf("Join(%s) led a new flight while one holds the key", key)
					}
					if m.kept {
						order = slices.Insert(slices.DeleteFunc(order, func(k string) bool { return k == key }), 0, key)
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
					if keepIt && err == nil && current[m.key] == m {
						wantKept = true
						if len(order) >= max {
							release(current[order[len(order)-1]])
							wantEvicted = true
						}
						m.kept = true
						order = slices.Insert(order, 0, m.key)
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
