package cache

import "testing"

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := NewLRU(2)
	if l.Put("a", 1) || l.Put("b", 2) {
		t.Fatal("eviction reported while under capacity")
	}
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	if !l.Put("c", 3) {
		t.Fatal("Put(c) did not report an eviction")
	}
	if _, ok := l.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := l.Get("a"); !ok {
		t.Error("a was evicted despite being recently used")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	l := NewLRU(2)
	l.Put("a", 1)
	l.Put("b", 2)
	if l.Put("a", 10) {
		t.Fatal("updating an existing key reported an eviction")
	}
	if v, _ := l.Get("a"); v != 10 {
		t.Errorf("Get(a) = %v after update, want 10", v)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
}

// TestLRUPutReportsEvictions pins the eviction report callers count
// in their own instruments: exactly one per displaced entry, none for
// inserts under capacity or in-place updates.
func TestLRUPutReportsEvictions(t *testing.T) {
	l := NewLRU(2)
	evictions := 0
	for _, k := range []string{"a", "b", "a", "c", "d", "d", "e"} {
		if l.Put(k, k) {
			evictions++
		}
	}
	// a, b fill the cache; a updates in place; c evicts b; d evicts a;
	// d updates in place; e evicts c.
	if evictions != 3 {
		t.Errorf("Put reported %d evictions, want 3", evictions)
	}
	for k, want := range map[string]bool{"a": false, "b": false, "c": false, "d": true, "e": true} {
		if _, ok := l.Get(k); ok != want {
			t.Errorf("Get(%s) present = %v, want %v", k, ok, want)
		}
	}
}

func TestLRUZeroCapacityClampsToOne(t *testing.T) {
	l := NewLRU(0)
	l.Put("a", 1)
	if _, ok := l.Get("a"); !ok {
		t.Fatal("entry lost in size-clamped cache")
	}
	l.Put("b", 2)
	if _, ok := l.Get("a"); ok {
		t.Error("capacity-1 cache retained two entries")
	}
}
