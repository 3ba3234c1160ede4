package session_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"incdes/internal/session"
)

// sampleDoc builds a real session document (root version plus one
// commit) by driving the library, so the conformance suite exercises
// everything a production document contains.
func sampleDoc(t *testing.T) *session.Doc {
	t.Helper()
	_, commits, _ := fixture(t)
	_, sess := open(t, session.NewMemStore())
	commit(t, sess, commits[0], session.CommitParams{})
	doc, err := sess.Doc()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func encodeDoc(t *testing.T, d *session.Doc) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := session.EncodeDoc(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// storeKinds are the built-in stores every store and session contract
// test runs over.
var storeKinds = []struct {
	name string
	mk   func(t *testing.T) session.Store
}{
	{"mem", func(t *testing.T) session.Store { return session.NewMemStore() }},
	{"disk", func(t *testing.T) session.Store {
		st, err := session.NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}},
}

// reopen returns a store over st's contents as a restarted process sees
// them: a new DiskStore over st's directory, or st itself in memory.
func reopen(t *testing.T, st session.Store) session.Store {
	t.Helper()
	ds, ok := st.(*session.DiskStore)
	if !ok {
		return st
	}
	fresh, err := session.NewDiskStore(ds.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

func cloneDoc(t *testing.T, d *session.Doc) *session.Doc {
	t.Helper()
	c, err := d.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rootOnly returns a copy of d cut back to its root version, with only
// the main branch.
func rootOnly(t *testing.T, d *session.Doc) *session.Doc {
	t.Helper()
	c := cloneDoc(t, d)
	c.Versions = c.Versions[:1]
	c.Branches = map[string]int{session.MainBranch: session.RootVersion}
	return c
}

// journalEntries returns a commit-, a branch- and a rollback-shaped entry
// over rootOnly(d), each with its own copy of d's version 1.
func journalEntries(t *testing.T, d *session.Doc) []*session.Entry {
	t.Helper()
	return []*session.Entry{
		{Version: cloneDoc(t, d).Versions[1], Branch: session.MainBranch, Head: 1},
		{Branch: "alt", Head: 1},
		{Branch: session.MainBranch, Head: session.RootVersion},
	}
}

// applyEntry applies e to d as a session does.
func applyEntry(d *session.Doc, e *session.Entry) {
	if e.Version != nil {
		d.Versions = append(d.Versions, e.Version)
	}
	d.Branches[e.Branch] = e.Head
}

// TestStoreConformance runs the identical contract suite over both
// built-in stores: round-trip fidelity, ErrNotFound, replace, the
// journal (appends read back as the document they build, Put drops the
// journal, appending to an unknown ID fails), tolerant delete, listing,
// and the no-aliasing rule (mutating a document or an entry before or
// after the store call never changes what the store returns).
func TestStoreConformance(t *testing.T) {
	for _, tc := range storeKinds {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.mk(t)
			doc := sampleDoc(t)
			want := encodeDoc(t, doc)

			if _, err := st.Get(doc.ID); !errors.Is(err, session.ErrNotFound) {
				t.Fatalf("Get before Put: err = %v, want ErrNotFound", err)
			}
			if err := st.Append(doc.ID, &session.Entry{Branch: "alt", Head: 0}); !errors.Is(err, session.ErrNotFound) {
				t.Fatalf("Append before Put: err = %v, want ErrNotFound", err)
			}
			if err := st.Put(doc); err != nil {
				t.Fatalf("Put: %v", err)
			}
			// Mutating our copy after Put must not reach the store.
			doc.Branches["rogue"] = 0
			got, err := st.Get(doc.ID)
			delete(doc.Branches, "rogue")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(encodeDoc(t, got), want) {
				t.Fatal("stored document does not round-trip canonically")
			}
			// Mutating the returned copy must not reach the store either.
			got.Branches["rogue"] = 0
			again, err := st.Get(doc.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeDoc(t, again), want) {
				t.Fatal("store aliases the document it returns")
			}

			// Replace with a new revision.
			doc2 := got
			delete(doc2.Branches, "rogue")
			doc2.Branches["alt"] = 0
			if err := st.Put(doc2); err != nil {
				t.Fatalf("Put (replace): %v", err)
			}
			rev, err := st.Get(doc.ID)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := rev.Branches["alt"]; !ok {
				t.Fatal("replace did not persist the new revision")
			}

			// The journal: a commit, a branch and a rollback appended to a
			// root-only document read back, after each append, as the
			// byte-identical canonical encoding of the document they
			// build; mutating an entry after Append changes nothing.
			live := rootOnly(t, doc)
			if err := st.Put(live); err != nil {
				t.Fatalf("Put (root only): %v", err)
			}
			for i, e := range journalEntries(t, doc) {
				if err := st.Append(doc.ID, e); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
				applyEntry(live, cloneEntry(t, e))
				e.Branch, e.Head = "rogue", 99
				if e.Version != nil {
					e.Version.Fingerprint = "rogue"
					e.Version.Mapping[e.Version.App.Graphs[0].Procs[0].ID] = 99
				}
				got, err := st.Get(doc.ID)
				if err != nil {
					t.Fatalf("Get after Append %d: %v", i, err)
				}
				if !bytes.Equal(encodeDoc(t, got), encodeDoc(t, live)) {
					t.Fatalf("after Append %d the store does not hold the document the entries build", i)
				}
			}
			// Put after appends replaces the document and drops the
			// journal: nothing appended before it is applied again.
			if err := st.Put(rev); err != nil {
				t.Fatalf("Put (after appends): %v", err)
			}
			if got, err := st.Get(doc.ID); err != nil || !bytes.Equal(encodeDoc(t, got), encodeDoc(t, rev)) {
				t.Fatalf("Put after appends: Get = %v; want the new document alone", err)
			}
			if err := st.Append("unknown", &session.Entry{Branch: "alt", Head: 0}); !errors.Is(err, session.ErrNotFound) {
				t.Fatalf("Append to an unknown id: err = %v, want ErrNotFound", err)
			}

			ids, err := st.List()
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			sort.Strings(ids)
			if len(ids) != 1 || ids[0] != doc.ID {
				t.Fatalf("List = %v, want [%s]", ids, doc.ID)
			}

			if err := st.Delete(doc.ID); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := st.Get(doc.ID); !errors.Is(err, session.ErrNotFound) {
				t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
			}
			if err := st.Delete(doc.ID); err != nil {
				t.Fatalf("Delete (absent): %v", err)
			}
			if ids, err := st.List(); err != nil || len(ids) != 0 {
				t.Fatalf("List after Delete = %v, %v; want empty", ids, err)
			}
			if err := st.Append(doc.ID, &session.Entry{Branch: "alt", Head: 0}); !errors.Is(err, session.ErrNotFound) {
				t.Fatalf("Append after Delete: err = %v, want ErrNotFound", err)
			}
			if ids, err := st.List(); err != nil || len(ids) != 0 {
				t.Fatalf("List after Append to a deleted id = %v, %v; want empty", ids, err)
			}
		})
	}
}

// cloneEntry deep-copies an entry through its JSON encoding.
func cloneEntry(t *testing.T, e *session.Entry) *session.Entry {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var c session.Entry
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestDiskStoreRoundTrip pins durability across process restarts: a
// second DiskStore over the same directory returns the byte-identical
// canonical document. (CI's fuzz-smoke matrix runs this by name.)
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc := sampleDoc(t)
	want := encodeDoc(t, doc)
	if err := st.Put(doc); err != nil {
		t.Fatal(err)
	}

	reopened, err := session.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", reopened.Dir(), dir)
	}
	got, err := reopened.Get(doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeDoc(t, got), want) {
		t.Fatal("disk round trip is not byte-identical")
	}

	// The on-disk form is exactly the canonical encoding.
	raw, err := os.ReadFile(filepath.Join(dir, doc.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("on-disk bytes differ from the canonical encoding")
	}
	// No temp files left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestDiskStoreRejectsUnsafeIDs pins the path-traversal guard.
func TestDiskStoreRejectsUnsafeIDs(t *testing.T) {
	st, err := session.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../evil", "a/b", ".hidden", strings.Repeat("x", 65)} {
		if _, err := st.Get(id); err == nil || errors.Is(err, session.ErrNotFound) {
			t.Errorf("Get(%q) err = %v, want invalid-id error", id, err)
		}
	}
}

// TestDiskStoreJournal pins the disk store's crash rules: a torn last
// journal line loads with the complete lines before it, a compacted
// document left with its old journal loads as the compacted document,
// a document alone (the form sessions had before journals) loads
// unchanged, Append never creates a journal for a missing document,
// Delete removes both files and List ignores journals. (CI's
// fuzz-smoke matrix runs this by name.)
func TestDiskStoreJournal(t *testing.T) {
	doc := sampleDoc(t)
	open := func(t *testing.T) (*session.DiskStore, string, string) {
		st, err := session.NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Join(st.Dir(), doc.ID)
		return st, base + ".json", base + ".journal"
	}
	get := func(t *testing.T, st session.Store) []byte {
		t.Helper()
		got, err := st.Get(doc.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		return encodeDoc(t, got)
	}
	// appendAll puts rootOnly(doc), appends the three journal entries,
	// and returns the document they build.
	appendAll := func(t *testing.T, st session.Store) *session.Doc {
		t.Helper()
		live := rootOnly(t, doc)
		if err := st.Put(live); err != nil {
			t.Fatal(err)
		}
		for _, e := range journalEntries(t, doc) {
			if err := st.Append(doc.ID, e); err != nil {
				t.Fatal(err)
			}
			applyEntry(live, e)
		}
		return live
	}

	t.Run("torn-last-line", func(t *testing.T) {
		st, path, journal := open(t)
		live := rootOnly(t, doc)
		if err := st.Put(live); err != nil {
			t.Fatal(err)
		}
		entries := journalEntries(t, doc)
		for _, e := range entries[:2] {
			if err := st.Append(doc.ID, e); err != nil {
				t.Fatal(err)
			}
			applyEntry(live, e)
		}
		raw, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		// Half of the third line, as a crash mid-append leaves it.
		line, err := json.Marshal(entries[2])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journal, append(raw, line[:len(line)/2]...), 0o644); err != nil {
			t.Fatal(err)
		}
		want := encodeDoc(t, live)
		if !bytes.Equal(get(t, reopen(t, st)), want) {
			t.Fatal("a torn last line does not load as the complete lines before it")
		}
		// Loading the session compacts it: the document is rewritten
		// whole and the journal with its torn tail is gone, so the next
		// append starts on a clean journal.
		m, err := session.NewManager(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := m.Get(doc.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(journal); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("loading the session left its journal behind: %v", err)
		}
		if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("loading the session did not write the document its journal builds (%v)", err)
		}
		if err := sess.Rollback(entries[2].Branch, entries[2].Head); err != nil {
			t.Fatal(err)
		}
		applyEntry(live, entries[2])
		if !bytes.Equal(get(t, st), encodeDoc(t, live)) {
			t.Fatal("an append after compacting a torn journal is lost")
		}
	})

	t.Run("compacted-with-old-journal", func(t *testing.T) {
		st, path, journal := open(t)
		live := appendAll(t, st)
		old, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Get(doc.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(got); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(journal); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Put left the journal behind: %v", err)
		}
		compacted, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeDoc(t, live); !bytes.Equal(compacted, want) {
			t.Fatal("the compacted document is not the canonical encoding of the journaled one")
		}
		// A crash between the rename and the journal's removal.
		if err := os.WriteFile(journal, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(get(t, reopen(t, st)), compacted) {
			t.Fatal("a compacted document with its old journal does not load as the compacted document")
		}
		// A held version whose bytes differ is corruption, not a replay.
		tampered := bytes.Replace(old, []byte(doc.Versions[1].Fingerprint), []byte(strings.Repeat("0", len(doc.Versions[1].Fingerprint))), 1)
		if err := os.WriteFile(journal, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(doc.ID); err == nil {
			t.Fatal("a journal version that differs from the held one was accepted")
		}
	})

	t.Run("document-only", func(t *testing.T) {
		st, path, journal := open(t)
		want := encodeDoc(t, doc)
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(get(t, st), want) {
			t.Fatal("a document without a journal does not load unchanged")
		}
		m, err := session.NewManager(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := m.Get(doc.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Verify(); err != nil {
			t.Fatal(err)
		}
		if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("loading rewrote the document differently (%v)", err)
		}
		if err := sess.Branch("alt", session.RootVersion); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(journal); err != nil {
			t.Fatalf("a branch on a loaded session wrote no journal: %v", err)
		}
	})

	t.Run("append-to-missing-document", func(t *testing.T) {
		st, _, journal := open(t)
		if err := st.Append(doc.ID, &session.Entry{Branch: "alt", Head: 0}); !errors.Is(err, session.ErrNotFound) {
			t.Fatalf("Append without a document: err = %v, want ErrNotFound", err)
		}
		if _, err := os.Stat(journal); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Append created a journal for a missing document: %v", err)
		}
	})

	t.Run("delete-and-list", func(t *testing.T) {
		st, path, journal := open(t)
		appendAll(t, st)
		// An orphaned journal is not a session.
		if err := os.WriteFile(filepath.Join(st.Dir(), "orphan.journal"), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		ids, err := st.List()
		if err != nil || len(ids) != 1 || ids[0] != doc.ID {
			t.Fatalf("List = %v, %v; want [%s]", ids, err, doc.ID)
		}
		if err := st.Delete(doc.ID); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{path, journal} {
			if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Delete left %s behind: %v", filepath.Base(p), err)
			}
		}
	})
}
