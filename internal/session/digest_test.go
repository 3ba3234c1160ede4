package session_test

import (
	"fmt"
	"testing"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/model"
	"incdes/internal/session"
)

// replayDigests pins the stored fingerprint (hex SHA-256 of
// sched.State.Fingerprint) of every version of two generated sessions,
// one on a single bus and one on three clusters. Stored session
// documents are the persisted contract: a scheduler change that moves
// any placement, or changes the fingerprint's serialization, makes every
// stored session fail Verify, and shows up here first.
var replayDigests = map[string]string{
	"multi/v0":  "744c0e6548a45bd8f2a6899ee8e1d704d7b5c1b8b38ba0eeb5ee58819b862945",
	"multi/v1":  "b893874c4303314d8a697f9947df5c92ca293180f861e93dea5eaff5331b2623",
	"multi/v2":  "fb65ca5416963bf38b69e3a2b4b6337ddbd18f8d2e4325b0a73a58c0690b48b0",
	"multi/v3":  "f980a6cc2234ec7e9200d9c494b403f693d781ed04bc3e1eed086ad8c0132388",
	"single/v0": "e130c51455db63a6637f6f3110bb279777d1aba7c96cd20f29bd2c8695f756b1",
	"single/v1": "4e88937d0c28fe794aec1e3ddcb6bab946a2ff38687a1cd33de0d0ffc48de338",
	"single/v2": "2202b200736fab8aa0ff530a60e0de0171525745c30b73d2a4348f22ab0c21ed",
	"single/v3": "b9909241a5002deab15223b8b82e0caa6c661f69312020dd9e6ce96832f1a539",
}

// digestConfig is the small generator configuration of the pinned
// sessions: five nodes per bus, graphs of 5-12 processes.
func digestConfig(clusters int) gen.Config {
	cfg := gen.Default()
	cfg.Nodes = 5
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 12
	if clusters > 1 {
		cfg.Clusters = clusters
		cfg.GatewaysPerLink = 1
		cfg.InterClusterFrac = 0.2
	}
	return cfg
}

// TestReplayMatchesPinnedDigests opens a session over the first of a
// generated system's three existing applications and commits three
// applications: the second existing one with MH (so the version carries
// hints), the third with AH on main, and the current application with
// AH on a second branch from version 1. Every version's fingerprint must
// equal the pinned one, and Verify must replay every branch to it.
func TestReplayMatchesPinnedDigests(t *testing.T) {
	got := map[string]string{}
	for _, c := range []struct {
		name     string
		clusters int
	}{{"single", 1}, {"multi", 3}} {
		cfg := digestConfig(c.clusters)
		tc, err := gen.MakeTestCase(cfg, 5, 300, 20)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m, err := session.NewManager(session.NewMemStore(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := m.Open(&model.System{Arch: tc.Sys.Arch, Apps: tc.Existing[:1]}, tc.Profile, "")
		if err != nil {
			t.Fatalf("%s: Open: %v", c.name, err)
		}
		mh := commit(t, sess, tc.Existing[1], session.CommitParams{Strategy: core.MHWith(core.MHOptions{MaxIterations: 4})})
		commit(t, sess, tc.Existing[2], session.CommitParams{})
		if err := sess.Branch("alt", mh.Version); err != nil {
			t.Fatal(err)
		}
		commit(t, sess, tc.Current, session.CommitParams{Branch: "alt"})

		doc, err := sess.Doc()
		if err != nil {
			t.Fatal(err)
		}
		if h := doc.Versions[mh.Version].Hints; h == nil || len(h.ProcStart)+len(h.MsgStart) == 0 {
			t.Errorf("%s: the MH commit carries no hints; the pinned case must replay some", c.name)
		}
		for _, vd := range doc.Versions {
			got[fmt.Sprintf("%s/v%d", c.name, vd.ID)] = vd.Fingerprint
		}
		if err := sess.Verify(); err != nil {
			t.Errorf("%s: Verify: %v", c.name, err)
		}
	}
	for key, d := range got {
		if want, ok := replayDigests[key]; !ok || d != want {
			t.Errorf("%q: version fingerprint %s, want %s", key, d, want)
		}
	}
	if len(replayDigests) != len(got) {
		t.Errorf("%d pinned digests, %d computed", len(replayDigests), len(got))
	}
}
