package session_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"incdes/internal/core"
	"incdes/internal/session"
)

// TestPropertyReplayDeterminism is the session property test: apply a
// seeded random sequence of commit / branch / rollback operations over
// each built-in store, then reload the session from the raw store in a
// fresh manager (for disk, through a fresh DiskStore over the same
// directory) and require that every surviving branch head
// rematerializes — by deterministic replay from the root — to exactly
// the fingerprint recorded at commit time, and that the reloaded
// document is the byte-identical canonical encoding of the live one.
// Any hidden dependence on in-memory state, iteration order or wall
// clock would break the replay and fail Verify.
func TestPropertyReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, kind := range storeKinds {
				t.Run(kind.name, func(t *testing.T) { replayProperty(t, kind.mk(t), seed) })
			}
		})
	}
}

func replayProperty(t *testing.T, store session.Store, seed int64) {
	sys, commits, _ := fixture(t)
	m, err := session.NewManager(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Open(sys, "")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	branches := []string{session.MainBranch}
	next := 0 // next unused application in commits
	maxVersion := func() int {
		doc, err := sess.Doc()
		if err != nil {
			t.Fatal(err)
		}
		return len(doc.Versions) - 1
	}
	for op := 0; op < 10; op++ {
		switch k := rng.Intn(4); {
		case k <= 1 && next < len(commits): // commit (weighted)
			br := branches[rng.Intn(len(branches))]
			res, err := sess.Commit(context.Background(), commits[next],
				session.CommitParams{Branch: br, Strategy: core.AH, Parallelism: 1})
			if err != nil {
				t.Fatalf("op %d: commit on %q: %v", op, br, err)
			}
			if res.Version < 0 {
				t.Fatalf("op %d: commit interrupted", op)
			}
			next++
		case k == 2: // branch from a random existing version
			name := fmt.Sprintf("b%d", op)
			if err := sess.Branch(name, rng.Intn(maxVersion()+1)); err != nil {
				t.Fatalf("op %d: branch %q: %v", op, name, err)
			}
			branches = append(branches, name)
		default: // rollback a random branch to a random version
			br := branches[rng.Intn(len(branches))]
			to := rng.Intn(maxVersion() + 1)
			err := sess.Rollback(br, to)
			if err != nil && !errors.Is(err, session.ErrNotAncestor) {
				t.Fatalf("op %d: rollback %q to %d: %v", op, br, to, err)
			}
		}
	}

	// Reload from raw bytes and replay everything from scratch.
	m2, err := session.NewManager(reopen(t, store), nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := m2.Get(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Verify(); err != nil {
		t.Fatalf("replay verification failed: %v", err)
	}

	// The live session and the reloaded one must agree on the whole
	// document, byte for byte.
	a, err := sess.Doc()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Doc()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDoc(t, a, b) {
		t.Fatal("the reloaded document is not the canonical encoding of the live one")
	}
}
