package session_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"incdes/internal/core"
	"incdes/internal/model"
	"incdes/internal/session"
)

// TestDeletedSessionStaysDeleted: a handle held across Manager.Delete
// (over HTTP, a commit in flight when DELETE arrives) must not bring the
// session back. Its commit, branch and rollback fail with ErrNotFound,
// the store stays empty, a fresh manager does not find the session, and
// the handle's document gains nothing.
func TestDeletedSessionStaysDeleted(t *testing.T) {
	_, commits, _ := fixture(t)
	for _, tc := range storeKinds {
		t.Run(tc.name, func(t *testing.T) {
			store := tc.mk(t)
			m, sess := open(t, store)
			commit(t, sess, commits[0], session.CommitParams{})
			before, err := sess.Doc()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Delete(sess.ID()); err != nil {
				t.Fatal(err)
			}

			_, err = sess.Commit(context.Background(), commits[1], session.CommitParams{Strategy: core.AH, Parallelism: 1})
			if !errors.Is(err, session.ErrNotFound) {
				t.Errorf("Commit on a deleted session: err = %v, want ErrNotFound", err)
			}
			if err := sess.Branch("alt", session.RootVersion); !errors.Is(err, session.ErrNotFound) {
				t.Errorf("Branch on a deleted session: err = %v, want ErrNotFound", err)
			}
			if err := sess.Rollback(session.MainBranch, session.RootVersion); !errors.Is(err, session.ErrNotFound) {
				t.Errorf("Rollback on a deleted session: err = %v, want ErrNotFound", err)
			}

			if ids, err := store.List(); err != nil || len(ids) != 0 {
				t.Errorf("store lists %v (%v) after the delete, want nothing", ids, err)
			}
			m2, err := session.NewManager(reopen(t, store), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m2.Get(sess.ID()); !errors.Is(err, session.ErrNotFound) {
				t.Errorf("fresh manager Get: err = %v, want ErrNotFound", err)
			}
			after, err := sess.Doc()
			if err != nil {
				t.Fatal(err)
			}
			if !sameDoc(t, before, after) {
				t.Error("the handle's document changed after failed writes")
			}
		})
	}
}

// sameDoc reports whether two documents have the same canonical
// encoding.
func sameDoc(t *testing.T, a, b *session.Doc) bool {
	t.Helper()
	return bytes.Equal(encodeDoc(t, a), encodeDoc(t, b))
}

// failingStore is a MemStore whose Append fails while fail is set.
type failingStore struct {
	*session.MemStore
	fail bool
}

var errAppend = errors.New("append failed")

func (s *failingStore) Append(id string, e *session.Entry) error {
	if s.fail {
		return errAppend
	}
	return s.MemStore.Append(id, e)
}

// TestStoreAppendFailureKeepsDocument: when the store cannot append, a
// commit, a branch and a rollback report its error and leave the live
// document as it was, and the next successful commit takes the version
// ID the failed one did not.
func TestStoreAppendFailureKeepsDocument(t *testing.T) {
	_, commits, _ := fixture(t)
	store := &failingStore{MemStore: session.NewMemStore()}
	_, sess := open(t, store)
	commit(t, sess, commits[0], session.CommitParams{})
	before, err := sess.Doc()
	if err != nil {
		t.Fatal(err)
	}

	store.fail = true
	if _, err := sess.Commit(context.Background(), commits[1], session.CommitParams{Strategy: core.AH, Parallelism: 1}); !errors.Is(err, errAppend) {
		t.Errorf("Commit: err = %v, want the append error", err)
	}
	if err := sess.Branch("alt", session.RootVersion); !errors.Is(err, errAppend) {
		t.Errorf("Branch: err = %v, want the append error", err)
	}
	if err := sess.Rollback(session.MainBranch, session.RootVersion); !errors.Is(err, errAppend) {
		t.Errorf("Rollback: err = %v, want the append error", err)
	}
	after, err := sess.Doc()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDoc(t, before, after) {
		t.Fatal("failed appends changed the live document")
	}

	store.fail = false
	if res := commit(t, sess, commits[1], session.CommitParams{}); res.Version != 2 || res.Parent != 1 {
		t.Fatalf("commit after the failures: version %d parent %d, want 2 and 1", res.Version, res.Parent)
	}
	stored, err := store.Get(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	live, err := sess.Doc()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDoc(t, stored, live) {
		t.Fatal("store and live document diverge after the failures")
	}
}

// countingStore counts a store's writes and records the journal bytes
// each append adds.
type countingStore struct {
	*session.DiskStore
	puts, appends int
	grew          []int // journal growth per append
	version       []int // encoded size of each append's version (0 if none)
}

func (s *countingStore) Put(d *session.Doc) error {
	s.puts++
	return s.DiskStore.Put(d)
}

func (s *countingStore) Append(id string, e *session.Entry) error {
	s.appends++
	journal := filepath.Join(s.Dir(), id+".journal")
	size := func() int {
		fi, err := os.Stat(journal)
		if err != nil {
			return 0
		}
		return int(fi.Size())
	}
	before := size()
	if err := s.DiskStore.Append(id, e); err != nil {
		return err
	}
	s.grew = append(s.grew, size()-before)
	n := 0
	if e.Version != nil {
		b, err := json.Marshal(e.Version)
		if err != nil {
			return err
		}
		n = len(b)
	}
	s.version = append(s.version, n)
	return nil
}

// growthFixture builds a base system and n single-process applications,
// all of one period, small enough that all of them fit on one chain.
func growthFixture(n int) (*model.System, []*model.Application) {
	b := model.NewBuilder()
	b.Node("N0")
	b.Node("N1")
	b.Node("N2")
	b.UniformBus(8, 1, 2)
	mk := func(name string) *model.Application {
		ab := b.App(name)
		ab.Graph(name+"-g", 600, 600).UniformProc(name+"-p", 3)
		return ab.Application()
	}
	mk("base")
	apps := make([]*model.Application, n)
	for i := range apps {
		apps[i] = mk(fmt.Sprintf("a%02d", i))
	}
	full := b.MustSystem()
	return &model.System{Arch: full.Arch, Apps: full.Apps[:1]}, apps
}

// entryOverhead bounds what a journal line adds to its version's
// encoding: the entry's keys, the branch name, the head and a newline.
const entryOverhead = 64

// TestCommitAppendsOnlyTheChange pins that a commit costs the change,
// not the history: over 30 commits along one chain and 30 on fresh
// branches from version 0, the whole document is written once (at
// Open), every commit and branch appends exactly one entry, and the
// bytes commit k appends stay within its own version's encoding plus a
// constant, however long the session has grown.
func TestCommitAppendsOnlyTheChange(t *testing.T) {
	ds, err := session.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{DiskStore: ds}
	sys, apps := growthFixture(60)
	m, err := session.NewManager(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Open(sys, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps[:30] {
		commit(t, sess, app, session.CommitParams{})
	}
	for i, app := range apps[30:] {
		name := fmt.Sprintf("b%d", i)
		if err := sess.Branch(name, session.RootVersion); err != nil {
			t.Fatal(err)
		}
		commit(t, sess, app, session.CommitParams{Branch: name})
	}

	if store.puts != 1 {
		t.Errorf("Put ran %d times, want once (at Open)", store.puts)
	}
	if want := 30 + 30 + 30; store.appends != want {
		t.Errorf("Append ran %d times, want %d (one per commit and per branch)", store.appends, want)
	}
	for k, grew := range store.grew {
		if limit := store.version[k] + entryOverhead; grew > limit {
			t.Errorf("append %d wrote %d bytes, want at most %d (its version's %d plus %d)",
				k, grew, limit, store.version[k], entryOverhead)
		}
	}

	// The journal reloads to the live document, and every head replays.
	m2, err := session.NewManager(reopen(t, ds), nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := m2.Get(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Verify(); err != nil {
		t.Fatal(err)
	}
	a, err := sess.Doc()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Doc()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDoc(t, a, b) {
		t.Fatal("the reloaded document differs from the live one")
	}
}

// TestStoreConcurrentAppends: appends from several goroutines to one
// session interleave with Gets. Every Get loads a valid document, and
// the last one holds every append.
func TestStoreConcurrentAppends(t *testing.T) {
	doc := sampleDoc(t)
	for _, tc := range storeKinds {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.mk(t)
			if err := st.Put(doc); err != nil {
				t.Fatal(err)
			}
			const writers, each = 4, 8
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						e := &session.Entry{Branch: fmt.Sprintf("w%d-%d", w, i), Head: session.RootVersion}
						if err := st.Append(doc.ID, e); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			done := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := st.Get(doc.ID); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			close(done)
			reader.Wait()
			got, err := st.Get(doc.ID)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(doc.Branches) + writers*each; len(got.Branches) != want {
				t.Fatalf("%d branches after the appends, want %d", len(got.Branches), want)
			}
		})
	}
}
