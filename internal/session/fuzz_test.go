package session_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"incdes/internal/core"
	"incdes/internal/session"
)

// FuzzDecodeDoc hardens the session-document loader, the trust boundary
// every stored session crosses on reload: arbitrary bytes must never
// panic, and every accepted document must satisfy the structural
// invariants, re-encode canonically, and re-decode to the byte-identical
// canonical form (decode∘encode is a fixed point).
func FuzzDecodeDoc(f *testing.F) {
	// Seed with a real two-version document produced by the library.
	sys, commits, _ := fixture(f)
	m, err := session.NewManager(session.NewMemStore(), nil)
	if err != nil {
		f.Fatal(err)
	}
	sess, err := m.Open(sys, "")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sess.Commit(context.Background(), commits[0],
		session.CommitParams{Strategy: core.AH, Parallelism: 1}); err != nil {
		f.Fatal(err)
	}
	doc, err := sess.Doc()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := session.EncodeDoc(&buf, doc); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{`))
	f.Add([]byte(`{"schema_version":1}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := session.DecodeDoc(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted implies valid — DecodeDoc validates, so this is the
		// idempotence check.
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted document fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := session.EncodeDoc(&out, got); err != nil {
			t.Fatalf("accepted document fails to encode: %v", err)
		}
		again, err := session.DecodeDoc(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding fails to re-decode: %v", err)
		}
		var out2 bytes.Buffer
		if err := session.EncodeDoc(&out2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// FuzzDecodeJournal hardens the journal loader, which every stored
// session crosses on reload together with its document: arbitrary bytes
// as the journal after a real document must never panic, and every
// accepted document must satisfy the structural invariants and encode
// canonically to a fixed point.
func FuzzDecodeJournal(f *testing.F) {
	// Seed with a real document and the journal a session appended to
	// it: a commit, a branch, a commit on the branch and a rollback.
	sys, commits, _ := fixture(f)
	store, err := session.NewDiskStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	m, err := session.NewManager(store, nil)
	if err != nil {
		f.Fatal(err)
	}
	sess, err := m.Open(sys, "s1")
	if err != nil {
		f.Fatal(err)
	}
	p := session.CommitParams{Strategy: core.AH, Parallelism: 1}
	if _, err := sess.Commit(context.Background(), commits[0], p); err != nil {
		f.Fatal(err)
	}
	if err := sess.Branch("alt", session.RootVersion); err != nil {
		f.Fatal(err)
	}
	p.Branch = "alt"
	if _, err := sess.Commit(context.Background(), commits[1], p); err != nil {
		f.Fatal(err)
	}
	if err := sess.Rollback(session.MainBranch, session.RootVersion); err != nil {
		f.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(store.Dir(), "s1.json"))
	if err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(store.Dir(), "s1.journal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-7]) // a torn last line
	f.Add(append(append([]byte(nil), journal...), journal...))
	f.Add([]byte(`{"branch":"main","head":0}` + "\n"))
	f.Add([]byte(`{"branch":"main","head":0,"extra":1}` + "\n"))
	f.Add([]byte(`{"version":{"id":0,"parent":-1},"branch":"x","head":-1}` + "\n"))
	f.Add([]byte("{}\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := session.DecodeJournal(doc, data)
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted document fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := session.EncodeDoc(&out, got); err != nil {
			t.Fatalf("accepted document fails to encode: %v", err)
		}
		again, err := session.DecodeJournal(out.Bytes(), nil)
		if err != nil {
			t.Fatalf("canonical encoding fails to re-decode: %v", err)
		}
		var out2 bytes.Buffer
		if err := session.EncodeDoc(&out2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
