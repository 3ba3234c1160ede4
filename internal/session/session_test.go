package session_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"incdes/internal/core"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/session"
	"incdes/internal/tm"
)

// fixture builds a base system (one application) plus standalone
// applications to commit later. Everything shares one builder so IDs are
// globally unique, and every graph uses the same period so commits never
// change the composite hyperperiod — except the deliberately illegal
// last application, whose longer period doubles it.
func fixture(t testing.TB) (*model.System, []*model.Application, *model.Application) {
	t.Helper()
	b := model.NewBuilder()
	b.Node("N0")
	b.Node("N1")
	b.Node("N2")
	b.UniformBus(8, 1, 2) // slot 10, round 30; hyperperiod lcm(60,30)=60

	mk := func(name string, procs int, period tm.Time) *model.Application {
		ab := b.App(name)
		g := ab.Graph(name+"-g", period, period)
		var prev model.ProcID
		for i := 0; i < procs; i++ {
			p := g.UniformProc(fmt.Sprintf("%s-p%d", name, i), 3)
			if i > 0 {
				g.Msg(prev, p, 4)
			}
			prev = p
		}
		return ab.Application()
	}

	mk("base", 3, 60)
	var commits []*model.Application
	for i := 1; i <= 6; i++ {
		commits = append(commits, mk(fmt.Sprintf("app%d", i), 1+i%3, 60))
	}
	slow := mk("slow", 2, 120) // legal application, illegal commit

	full := b.MustSystem() // validates all applications at once
	sys := &model.System{Arch: full.Arch, Apps: full.Apps[:1]}
	return sys, commits, slow
}

func open(t *testing.T, store session.Store) (*session.Manager, *session.Session) {
	t.Helper()
	sys, _, _ := fixture(t)
	m, err := session.NewManager(store, nil)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	sess, err := m.Open(sys, "")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m, sess
}

func commit(t *testing.T, sess *session.Session, app *model.Application, p session.CommitParams) *session.CommitResult {
	t.Helper()
	if p.Strategy == nil {
		p.Strategy = core.AH
	}
	if p.Parallelism == 0 {
		p.Parallelism = 1
	}
	res, err := sess.Commit(context.Background(), app, p)
	if err != nil {
		t.Fatalf("Commit(%q): %v", app.Name, err)
	}
	if res.Version < 0 {
		t.Fatalf("Commit(%q): interrupted", app.Name)
	}
	return res
}

// composedSolve runs the one-shot equivalent of a session commit: freeze
// the base applications with the initial-mapping algorithm, re-apply the
// prior commits' stored placements, then solve for the new application —
// on the session's pinned profile and weights but WITHOUT the session's
// cached baseline, so equivalence also proves the baseline shortcut
// changes nothing.
func composedSolve(t *testing.T, sess *session.Session, upTo int, app *model.Application, strat core.Strategy) *core.Solution {
	t.Helper()
	doc, err := sess.Doc()
	if err != nil {
		t.Fatal(err)
	}
	apps := append([]*model.Application(nil), doc.System.Apps...)
	var replay []*session.VersionDoc
	for v := upTo; v != session.RootVersion; {
		vd := doc.Versions[v]
		replay = append([]*session.VersionDoc{vd}, replay...)
		v = vd.Parent
	}
	for _, vd := range replay {
		apps = append(apps, vd.App)
	}
	sys := &model.System{Arch: doc.System.Arch, Apps: append(append([]*model.Application(nil), apps...), app)}
	st, err := sched.NewState(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range doc.System.Apps {
		if _, err := st.MapApp(a, sched.Hints{}); err != nil {
			t.Fatalf("freezing %q: %v", a.Name, err)
		}
	}
	for _, vd := range replay {
		var hints sched.Hints // a version that persisted none replays with none
		if vd.Hints != nil {
			hints = *vd.Hints
		}
		if err := st.ScheduleApp(vd.App, vd.Mapping, hints); err != nil {
			t.Fatalf("replaying commit of %q: %v", vd.App.Name, err)
		}
	}
	p, err := core.NewProblem(sys, st, app, doc.Profile, metrics.DefaultWeights(doc.Profile))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(context.Background(), p, core.Options{Strategy: strat, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestCommitMatchesOneShotSolve pins the tentpole's core guarantee: a
// commit through the session API produces the byte-identical schedule,
// mapping and report that a from-scratch solve of the equivalent
// composed problem produces — for every strategy, and across a chain of
// commits.
func TestCommitMatchesOneShotSolve(t *testing.T) {
	_, commits, _ := fixture(t)
	strategies := []struct {
		name  string
		strat core.Strategy
	}{
		{"ah", core.AH},
		{"mh", core.MH},
		{"sa", core.SAWith(core.SAOptions{Seed: 7, Iterations: 60, Restarts: 1})},
	}
	for _, tc := range strategies {
		t.Run(tc.name, func(t *testing.T) {
			_, sess := open(t, session.NewMemStore())
			for k := 0; k < 2; k++ { // a two-commit chain
				head, err := sess.Head(session.MainBranch)
				if err != nil {
					t.Fatal(err)
				}
				direct := composedSolve(t, sess, head, commits[k], tc.strat)
				res := commit(t, sess, commits[k], session.CommitParams{Strategy: tc.strat})

				if !reflect.DeepEqual(res.Solution.Mapping, direct.Mapping) {
					t.Fatalf("commit %d: mapping diverges from one-shot solve", k)
				}
				if res.Solution.Report != direct.Report {
					t.Fatalf("commit %d: report %+v != one-shot %+v", k, res.Solution.Report, direct.Report)
				}
				if res.Solution.Evaluations != direct.Evaluations {
					t.Fatalf("commit %d: evaluations %d != one-shot %d", k, res.Solution.Evaluations, direct.Evaluations)
				}
				if !bytes.Equal(res.Solution.State.Fingerprint(), direct.State.Fingerprint()) {
					t.Fatalf("commit %d: schedule state not byte-identical to one-shot solve", k)
				}
			}
		})
	}
}

// TestBaselineReuse pins the session cache: the first commit from a
// version builds its baseline, any further commit from the same version
// reuses it.
func TestBaselineReuse(t *testing.T) {
	_, commits, _ := fixture(t)
	_, sess := open(t, session.NewMemStore())

	r1 := commit(t, sess, commits[0], session.CommitParams{})
	if r1.BaselineReused {
		t.Error("first commit from the root claims a cached baseline")
	}
	if err := sess.Branch("alt", session.RootVersion); err != nil {
		t.Fatal(err)
	}
	r2 := commit(t, sess, commits[1], session.CommitParams{Branch: "alt"})
	if !r2.BaselineReused {
		t.Error("second commit from the root rebuilt the baseline")
	}
	if r1.Parent != session.RootVersion || r2.Parent != session.RootVersion {
		t.Errorf("parents = %d, %d, want both %d", r1.Parent, r2.Parent, session.RootVersion)
	}
}

// TestBranchRollbackSemantics exercises the version tree: branching from
// arbitrary versions, rolling back along ancestry only, and the error
// sentinels for every illegal operation.
func TestBranchRollbackSemantics(t *testing.T) {
	_, commits, _ := fixture(t)
	_, sess := open(t, session.NewMemStore())

	v1 := commit(t, sess, commits[0], session.CommitParams{}).Version
	v2 := commit(t, sess, commits[1], session.CommitParams{}).Version
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions = %d,%d, want 1,2", v1, v2)
	}
	if err := sess.Branch("alt", v1); err != nil {
		t.Fatal(err)
	}
	v3 := commit(t, sess, commits[2], session.CommitParams{Branch: "alt"})
	if v3.Parent != v1 {
		t.Fatalf("branch commit parent = %d, want %d", v3.Parent, v1)
	}

	if err := sess.Branch("alt", v1); !errors.Is(err, session.ErrBranchExists) {
		t.Errorf("duplicate branch: err = %v, want ErrBranchExists", err)
	}
	if err := sess.Branch("bad name!", v1); err == nil {
		t.Error("invalid branch name accepted")
	}
	if err := sess.Branch("orphan", 99); !errors.Is(err, session.ErrUnknownVersion) {
		t.Errorf("branch from missing version: err = %v, want ErrUnknownVersion", err)
	}
	if _, err := sess.Commit(context.Background(), commits[3], session.CommitParams{Branch: "nope", Strategy: core.AH}); !errors.Is(err, session.ErrUnknownBranch) {
		t.Errorf("commit to missing branch: err = %v, want ErrUnknownBranch", err)
	}

	// main: 0 -> 1 -> 2. Rolling back to v3 (on alt) must fail; to v1 ok.
	if err := sess.Rollback(session.MainBranch, v3.Version); !errors.Is(err, session.ErrNotAncestor) {
		t.Errorf("rollback across branches: err = %v, want ErrNotAncestor", err)
	}
	if err := sess.Rollback(session.MainBranch, v1); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if head, _ := sess.Head(session.MainBranch); head != v1 {
		t.Fatalf("head after rollback = %d, want %d", head, v1)
	}
	// v2 is now orphaned but must stay diffable.
	d, err := sess.Diff(v2, v3.Version)
	if err != nil {
		t.Fatalf("diff of orphaned version: %v", err)
	}
	if !reflect.DeepEqual(d.AppsAdded, []string{commits[2].Name}) ||
		!reflect.DeepEqual(d.AppsRemoved, []string{commits[1].Name}) {
		t.Errorf("diff apps = +%v -%v, want +[%s] -[%s]",
			d.AppsAdded, d.AppsRemoved, commits[2].Name, commits[1].Name)
	}
	// A commit after the rollback continues from the moved head.
	v4 := commit(t, sess, commits[3], session.CommitParams{})
	if v4.Parent != v1 {
		t.Fatalf("post-rollback commit parent = %d, want %d", v4.Parent, v1)
	}
}

// TestIllegalCommits pins the MIMOS legality rule and input validation.
func TestIllegalCommits(t *testing.T) {
	_, commits, slow := fixture(t)
	_, sess := open(t, session.NewMemStore())

	// Changing the composite hyperperiod invalidates the frozen schedule.
	if _, err := sess.Commit(context.Background(), slow, session.CommitParams{Strategy: core.AH}); !errors.Is(err, session.ErrIllegalCommit) {
		t.Errorf("hyperperiod-changing commit: err = %v, want ErrIllegalCommit", err)
	}
	// Committing an application whose IDs collide with a frozen one.
	commit(t, sess, commits[0], session.CommitParams{})
	if _, err := sess.Commit(context.Background(), commits[0], session.CommitParams{Strategy: core.AH}); !errors.Is(err, session.ErrIllegalCommit) {
		t.Errorf("duplicate commit: err = %v, want ErrIllegalCommit", err)
	}
	if _, err := sess.Commit(context.Background(), nil, session.CommitParams{Strategy: core.AH}); !errors.Is(err, session.ErrIllegalCommit) {
		t.Errorf("nil application: err = %v, want ErrIllegalCommit", err)
	}
}

// TestInterruptedCommitFreezesNothing: a cancelled solve reports the
// best design found but creates no version — sessions only ever record
// complete, deterministic solves.
func TestInterruptedCommitFreezesNothing(t *testing.T) {
	_, commits, _ := fixture(t)
	_, sess := open(t, session.NewMemStore())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sess.Commit(ctx, commits[0], session.CommitParams{Strategy: core.MH, Parallelism: 1})
	if err != nil {
		t.Fatalf("interrupted commit: %v", err)
	}
	if res.Version != -1 || !res.Solution.Interrupted {
		t.Fatalf("interrupted commit: version %d, interrupted %v; want -1, true", res.Version, res.Solution.Interrupted)
	}
	doc, err := sess.Doc()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Versions) != 1 {
		t.Fatalf("interrupted commit persisted a version: %d versions", len(doc.Versions))
	}
	if head, _ := sess.Head(session.MainBranch); head != session.RootVersion {
		t.Fatalf("head moved to %d after interrupted commit", head)
	}
}

// TestReplayAcrossManagers pins durability: a second manager over the
// same store rematerializes every version by deterministic replay to the
// exact stored fingerprints, with no state carried over in memory.
func TestReplayAcrossManagers(t *testing.T) {
	store := session.NewMemStore()
	_, commits, _ := fixture(t)
	m1, sess := open(t, store)
	commit(t, sess, commits[0], session.CommitParams{})
	commit(t, sess, commits[1], session.CommitParams{Strategy: core.MH})
	if err := sess.Branch("alt", 1); err != nil {
		t.Fatal(err)
	}
	commit(t, sess, commits[2], session.CommitParams{Branch: "alt"})
	id := sess.ID()

	m2, err := session.NewManager(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := m2.Get(id)
	if err != nil {
		t.Fatalf("Get after reload: %v", err)
	}
	if err := fresh.Verify(); err != nil {
		t.Fatalf("Verify after reload: %v", err)
	}
	for _, v := range []int{0, 1, 2, 3} {
		a, err := sess.StateAt(v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.StateAt(v)
		if err != nil {
			t.Fatalf("replaying version %d: %v", v, err)
		}
		if !bytes.Equal(a.Fingerprint(), b.Fingerprint()) {
			t.Fatalf("version %d replays to a different schedule", v)
		}
	}
	// The reloaded manager's ID generator must not collide.
	sys2, _, _ := fixture(t)
	other, err := m2.Open(sys2, "")
	if err != nil {
		t.Fatal(err)
	}
	if other.ID() == id {
		t.Fatalf("reloaded manager reissued session id %s", id)
	}
	if err := m1.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Get("unknown"); !errors.Is(err, session.ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
}

// TestOpenRejectsDuplicateID pins explicit-ID collision handling.
func TestOpenRejectsDuplicateID(t *testing.T) {
	store := session.NewMemStore()
	sys, _, _ := fixture(t)
	m, err := session.NewManager(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(sys, "mine"); err != nil {
		t.Fatal(err)
	}
	sys2, _, _ := fixture(t)
	if _, err := m.Open(sys2, "mine"); !errors.Is(err, session.ErrExists) {
		t.Errorf("duplicate id: err = %v, want ErrExists", err)
	}
}

// TestDiffAlongChain checks pure-growth diffs: committing only adds.
func TestDiffAlongChain(t *testing.T) {
	_, commits, _ := fixture(t)
	_, sess := open(t, session.NewMemStore())
	commit(t, sess, commits[0], session.CommitParams{})
	d, err := sess.Diff(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.AppsAdded, []string{commits[0].Name}) || len(d.AppsRemoved) != 0 {
		t.Fatalf("diff apps = +%v -%v, want +[%s] -[]", d.AppsAdded, d.AppsRemoved, commits[0].Name)
	}
	for _, p := range d.Procs {
		if p.Kind != session.DeltaAdded {
			t.Fatalf("commit moved frozen process %d (%s)", p.Proc, p.Kind)
		}
	}
	if got, want := len(d.Procs), commits[0].NumProcs(); got != want {
		t.Fatalf("diff lists %d added processes, want %d", got, want)
	}
	if d.MsgsRemoved != 0 || d.MsgsRetimed != 0 {
		t.Fatalf("commit disturbed frozen messages: -%d ~%d", d.MsgsRemoved, d.MsgsRetimed)
	}
}

// TestDiffComparesEveryHop: on a multi-cluster platform a message
// occurrence is a chain of hops, and moving its first hop is a retiming
// even when its last hop stays put. N0 sends to N2 through the gateway
// N1: hop 0 on bus 0, hop 1 on bus 1. Two branches from version 0
// commit the same application, one without hints and one whose message
// may not start before 30. That moves hop 0 from bus-0 round 1 to
// round 2 while hop 1 stays in bus-1 round 0, slot 1.
func TestDiffComparesEveryHop(t *testing.T) {
	b := model.NewBuilder()
	n0, n1, n2 := b.Node("N0"), b.Node("N1"), b.Node("N2")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2)
	b.AddBus([]model.NodeID{n2, n1}, []int{100, 8}, 1, 2)
	b.App("base").Graph("base-g", 560, 560).Proc("b0", map[model.NodeID]tm.Time{n1: 5})
	ab := b.App("app")
	g := ab.Graph("app-g", 560, 560)
	p0 := g.Proc("p0", map[model.NodeID]tm.Time{n0: 5})
	p1 := g.Proc("p1", map[model.NodeID]tm.Time{n2: 5})
	m := g.Msg(p0, p1, 4)
	full := b.MustSystem()
	base, app := &model.System{Arch: full.Arch, Apps: full.Apps[:1]}, ab.Application()
	mapping := model.Mapping{p0: n0, p1: n2}

	store := session.NewMemStore()
	mgr, err := session.NewManager(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.Open(base, "hops")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sess.Doc()
	if err != nil {
		t.Fatal(err)
	}
	// Each version's fingerprint is what replay reproduces: the base
	// mapped as opened, then the commit's mapping and hints verbatim.
	version := func(id int, hints *sched.Hints) *session.VersionDoc {
		st, err := sched.NewState(&model.System{Arch: full.Arch, Apps: full.Apps})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.MapApp(base.Apps[0], sched.Hints{}); err != nil {
			t.Fatal(err)
		}
		var h sched.Hints
		if hints != nil {
			h = *hints
		}
		if err := st.ScheduleApp(app, mapping, h); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(st.Fingerprint())
		return &session.VersionDoc{
			ID: id, Parent: session.RootVersion, App: app, Mapping: mapping,
			Hints: hints, Strategy: "AH",
			Fingerprint: hex.EncodeToString(sum[:]),
		}
	}
	doc.Versions = append(doc.Versions,
		version(1, nil),
		version(2, &sched.Hints{MsgStart: map[model.MsgID]tm.Time{m: 30}}))
	doc.Branches = map[string]int{session.MainBranch: 1, "late": 2}
	if err := store.Put(doc); err != nil {
		t.Fatal(err)
	}
	mgr, err = session.NewManager(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess, err = mgr.Get("hops"); err != nil {
		t.Fatal(err)
	}
	// The premise: only hop 0 moves.
	hops := func(v int) []string {
		st, err := sess.StateAt(v)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range st.MsgEntries() {
			if e.Msg == m && e.Occ == 0 {
				out = append(out, fmt.Sprintf("hop %d: bus %d round %d slot %d", e.Hop, e.Bus, e.Round, e.Slot))
			}
		}
		return out
	}
	want := map[int][]string{
		1: {"hop 0: bus 0 round 1 slot 0", "hop 1: bus 1 round 0 slot 1"},
		2: {"hop 0: bus 0 round 2 slot 0", "hop 1: bus 1 round 0 slot 1"},
	}
	for v, w := range want {
		if got := hops(v); !reflect.DeepEqual(got, w) {
			t.Fatalf("version %d schedules %v, want %v", v, got, w)
		}
	}
	d, err := sess.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.MsgsRetimed != 1 || d.MsgsAdded != 0 || d.MsgsRemoved != 0 {
		t.Errorf("msgs +%d/-%d/~%d, want +0/-0/~1", d.MsgsAdded, d.MsgsRemoved, d.MsgsRetimed)
	}
}
