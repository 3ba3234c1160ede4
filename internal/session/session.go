// Package session makes the paper's incremental design process a
// first-class, versioned object: a design session opens over a base
// system (version 0 — every existing application scheduled and frozen),
// then grows one committed application at a time. Each commit maps and
// schedules the new application against the frozen composite of its
// parent version through core.Solve, reusing the version's cached
// metrics.Baseline, and freezes the result as a new version; every
// commit solves, nothing replays an earlier commit's result. Branches
// name what-if lines of development from any version, rollback moves a
// branch head back along its ancestry, and any two versions can be
// diffed (placement delta plus metric delta).
//
// The commit legality rule follows MIMOS's model of deterministic update
// of deployed time-triggered systems: a commit is legal only if it leaves
// the composite hyperperiod unchanged (the deployed cyclic schedule's
// time frame is part of the frozen contract) and touches nothing already
// placed — strategies only ever add to the frozen composite, so every
// prior version's schedule is preserved verbatim, entry for entry.
//
// Sessions persist behind the pluggable Store interface (memory and
// on-disk implementations) as pure replay logs: a version stores its
// application, mapping, start-offset hints and a fingerprint of the
// composite schedule, so a fresh process rematerializes any version
// deterministically and verifies it against the stored fingerprint. A
// commit, a branch and a rollback each append one journal Entry to the
// stored document, so persisting one costs the change, not the history;
// loading a session folds its journal into a rewritten document.
package session

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"incdes/internal/core"
	"incdes/internal/future"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/sched"
)

// Sentinel errors of the session lifecycle; HTTP and CLI layers map them
// to status codes.
var (
	// ErrIllegalCommit marks a commit the MIMOS-style legality rule
	// rejects: colliding IDs, an application that fails model validation,
	// or one whose periods would change the composite hyperperiod.
	ErrIllegalCommit = errors.New("session: illegal commit")
	// ErrUnknownBranch names a branch the session does not have.
	ErrUnknownBranch = errors.New("session: unknown branch")
	// ErrUnknownVersion names a version outside the session's tree.
	ErrUnknownVersion = errors.New("session: unknown version")
	// ErrBranchExists rejects creating a branch name twice.
	ErrBranchExists = errors.New("session: branch already exists")
	// ErrNotAncestor rejects a rollback target that is not on the branch
	// head's ancestor chain.
	ErrNotAncestor = errors.New("session: rollback target is not an ancestor of the branch head")
	// ErrConflict reports a concurrent modification detected at commit
	// time (the branch head moved while the solve ran).
	ErrConflict = errors.New("session: branch head moved during commit")
	// ErrCorrupt reports that replaying a stored version did not
	// reproduce its recorded fingerprint.
	ErrCorrupt = errors.New("session: replay does not reproduce the stored fingerprint")
	// ErrExists rejects opening a session under an ID already in use.
	ErrExists = errors.New("session: id already exists")
	// ErrBaseDoesNotFit rejects opening a session over a base system
	// whose applications cannot all be scheduled together.
	ErrBaseDoesNotFit = errors.New("session: open: the base applications do not fit")
)

// Manager owns the live sessions of one process: it hands out Session
// handles, assigns IDs, and keeps the Store and the observability
// registry every session reports into.
type Manager struct {
	store Store
	reg   *obs.Registry // session.* counters; nil disables

	mu     sync.Mutex
	live   map[string]*Session
	nextID int64
}

// NewManager opens a manager over a store. Existing stored sessions are
// not loaded eagerly — Get rematerializes them on demand — but their IDs
// seed the ID generator so new sessions never collide. reg may be nil.
func NewManager(store Store, reg *obs.Registry) (*Manager, error) {
	ids, err := store.List()
	if err != nil {
		return nil, err
	}
	m := &Manager{store: store, reg: reg, live: map[string]*Session{}}
	for _, id := range ids {
		if n, err := strconv.ParseInt(strings.TrimPrefix(id, "s"), 10, 64); err == nil && n > m.nextID {
			m.nextID = n
		}
	}
	return m, nil
}

// count increments a session.* counter; free when no registry attached.
func (m *Manager) count(name string) {
	if m.reg != nil {
		m.reg.Counter(name).Inc()
	}
}

func (m *Manager) setLiveGauge() {
	if m.reg != nil {
		m.reg.Gauge(obs.GagSessLive).Set(int64(len(m.live)))
	}
}

// Open creates a session over sys: every application of sys is scheduled
// in arrival order with the initial-mapping algorithm and frozen as
// version 0. The session's future-application characterization is
// derived from sys exactly as the one-shot solve path does
// (gen.ProfileForSystem with the default configuration) and pinned for
// the whole session. id names the session; "" assigns the next free sN.
// A base whose applications do not fit is ErrBaseDoesNotFit.
func (m *Manager) Open(sys *model.System, id string) (*Session, error) {
	if sys == nil {
		return nil, fmt.Errorf("session: open: no system")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	prof := gen.ProfileForSystem(gen.Default(), sys)
	if err := prof.Validate(); err != nil {
		return nil, err
	}

	st, err := sched.NewState(sys)
	if err != nil {
		return nil, err
	}
	for _, app := range sys.Apps {
		if _, err := st.MapApp(app, sched.Hints{}); err != nil {
			return nil, fmt.Errorf("%w: application %q: %w", ErrBaseDoesNotFit, app.Name, err)
		}
	}
	w := metrics.DefaultWeights(prof)
	rep := metrics.Evaluate(st, prof, w)

	m.mu.Lock()
	defer m.mu.Unlock()
	if id == "" {
		m.nextID++
		id = "s" + strconv.FormatInt(m.nextID, 10)
	} else if !idRe.MatchString(id) {
		return nil, fmt.Errorf("session: invalid session id %q", id)
	}
	if _, ok := m.live[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	if _, err := m.store.Get(id); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	} else if !errors.Is(err, ErrNotFound) {
		return nil, err
	}

	doc := &Doc{
		SchemaVersion: DocSchemaVersion,
		ID:            id,
		System:        sys,
		Profile:       prof,
		Versions: []*VersionDoc{{
			ID:          RootVersion,
			Parent:      noParent,
			Report:      rep,
			Fingerprint: fingerprint(st),
		}},
		Branches: map[string]int{MainBranch: RootVersion},
	}
	s := newSession(doc, m.store, m.reg)
	s.states[RootVersion] = st
	if err := m.store.Put(doc); err != nil {
		return nil, err
	}
	m.live[id] = s
	m.count(obs.CtrSessOpens)
	m.setLiveGauge()
	return s, nil
}

// Get returns the live session, loading and revalidating it from the
// store when this process has not touched it yet. Loading compacts the
// session: the document with its journal applied is written back whole
// (Store.Put), under the manager's lock and before the session goes live,
// so no append can interleave with it. Schedule states are rematerialized
// lazily by replay on first use.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.live[id]; ok {
		return s, nil
	}
	doc, err := m.store.Get(id)
	if err != nil {
		return nil, err
	}
	if err := m.store.Put(doc); err != nil {
		return nil, err
	}
	s := newSession(doc, m.store, m.reg)
	m.live[id] = s
	m.setLiveGauge()
	return s, nil
}

// List returns every stored session ID, sorted.
func (m *Manager) List() ([]string, error) {
	ids, err := m.store.List()
	if err != nil {
		return nil, err
	}
	sort.Strings(ids)
	return ids, nil
}

// Delete removes a session from the store and from memory. It never
// loads the session, so a stored document that no longer decodes can
// still be deleted; an ID that is neither live nor stored is ErrNotFound.
// A handle to the session that is still held fails every later commit,
// branch and rollback with ErrNotFound: the store refuses to append to a
// deleted session.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.live[id]; !ok {
		ids, err := m.store.List()
		if err != nil {
			return err
		}
		if !slices.Contains(ids, id) {
			return ErrNotFound
		}
	}
	delete(m.live, id)
	m.setLiveGauge()
	return m.store.Delete(id)
}

// Session is one live versioned design session. All methods are safe for
// concurrent use; commits additionally serialize against each other, so
// two commits to the same branch never both succeed from the same parent
// (the second would observe the moved head and report ErrConflict only
// if it raced a rollback — commit-vs-commit simply queues).
type Session struct {
	store Store
	reg   *obs.Registry

	// commitMu serializes whole commits (including their solves);
	// mu guards the document and the materialization caches and is never
	// held across a solve.
	commitMu sync.Mutex
	mu       sync.Mutex
	doc      *Doc
	prof     *future.Profile
	weights  metrics.Weights

	// Per-version materialization caches, lazily filled by replay: the
	// frozen composite schedule state (its System() is the version's
	// composite system) and the metric baseline commits from this
	// version reuse.
	states    map[int]*sched.State
	baselines map[int]*metrics.Baseline
}

func newSession(doc *Doc, store Store, reg *obs.Registry) *Session {
	return &Session{
		store:     store,
		reg:       reg,
		doc:       doc,
		prof:      doc.Profile,
		weights:   metrics.DefaultWeights(doc.Profile),
		states:    map[int]*sched.State{},
		baselines: map[int]*metrics.Baseline{},
	}
}

// ID returns the session's identifier.
func (s *Session) ID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doc.ID
}

// Doc returns a deep copy of the persisted document.
func (s *Session) Doc() (*Doc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doc.Clone()
}

func (s *Session) count(name string) {
	if s.reg != nil {
		s.reg.Counter(name).Inc()
	}
}

// fingerprint hashes a schedule state's canonical serialization.
func fingerprint(st *sched.State) string {
	sum := sha256.Sum256(st.Fingerprint())
	return hex.EncodeToString(sum[:])
}

// chainLocked returns the version IDs from the root to v, inclusive.
func (s *Session) chainLocked(v int) ([]int, error) {
	if v < 0 || v >= len(s.doc.Versions) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVersion, v)
	}
	var rev []int
	for cur := v; cur != noParent; cur = s.doc.Versions[cur].Parent {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// stateAtLocked returns (materializing and caching if needed) the frozen
// composite schedule of a version. Its system is the composite: the base
// system's applications plus every application committed along the
// chain, in commit order. Replay reschedules the base applications with
// the initial-mapping algorithm and then re-applies every commit's stored
// mapping and hints; the result must reproduce the stored fingerprint or
// the session is reported corrupt.
func (s *Session) stateAtLocked(v int) (*sched.State, error) {
	if st := s.states[v]; st != nil {
		return st, nil
	}
	chain, err := s.chainLocked(v)
	if err != nil {
		return nil, err
	}
	apps := append([]*model.Application(nil), s.doc.System.Apps...)
	for _, id := range chain {
		if vd := s.doc.Versions[id]; vd.App != nil {
			apps = append(apps, vd.App)
		}
	}
	st, err := sched.NewState(&model.System{Arch: s.doc.System.Arch, Apps: apps})
	if err != nil {
		return nil, err
	}
	for _, app := range s.doc.System.Apps {
		if _, err := st.MapApp(app, sched.Hints{}); err != nil {
			return nil, fmt.Errorf("session: replay of version %d: base application %q: %w", v, app.Name, err)
		}
	}
	for _, id := range chain {
		vd := s.doc.Versions[id]
		if vd.App == nil {
			continue
		}
		var hints sched.Hints
		if vd.Hints != nil {
			hints = *vd.Hints
		}
		if err := st.ScheduleApp(vd.App, vd.Mapping, hints); err != nil {
			return nil, fmt.Errorf("session: replay of version %d: commit %d (%q): %w", v, id, vd.App.Name, err)
		}
	}
	if got, want := fingerprint(st), s.doc.Versions[v].Fingerprint; got != want {
		return nil, fmt.Errorf("%w: version %d replayed to %s, stored %s", ErrCorrupt, v, got[:12], want[:12])
	}
	s.states[v] = st
	s.count(obs.CtrSessReplays)
	return st, nil
}

// StateAt materializes a version's frozen composite schedule.
func (s *Session) StateAt(v int) (*sched.State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateAtLocked(v)
}

// baselineAtLocked returns the version's cached metric baseline,
// computing it on first use.
func (s *Session) baselineAtLocked(v int) (*metrics.Baseline, bool, error) {
	if b := s.baselines[v]; b != nil {
		s.count(obs.CtrSessBaselineReuses)
		return b, true, nil
	}
	st, err := s.stateAtLocked(v)
	if err != nil {
		return nil, false, err
	}
	b := metrics.NewBaseline(st, s.prof, s.weights)
	s.baselines[v] = b
	s.count(obs.CtrSessBaselineBuilds)
	return b, false, nil
}

// CommitParams configure one commit's solve.
type CommitParams struct {
	// Branch to advance; "" means main.
	Branch string
	// Strategy is the mapping strategy (required), as for core.Solve.
	Strategy core.Strategy
	// Parallelism and Observer are handed to core.Solve unchanged.
	Parallelism int
	Observer    *obs.Observer
}

// CommitResult reports one commit.
type CommitResult struct {
	// Version is the new version's ID, or -1 when the solve was
	// interrupted and no version was created (the solution still carries
	// the best design found, for inspection).
	Version int
	// Parent is the version the commit was built on.
	Parent int
	// Branch is the branch the commit advanced.
	Branch string
	// Solution is the full solve outcome over the composite problem.
	Solution *core.Solution
	// BaselineReused reports whether the parent version's metric
	// baseline was served from the session cache.
	BaselineReused bool
}

// Commit maps and schedules app against the frozen composite of the
// branch head, following the same preparation as a one-shot solve of the
// composed system — except that the frozen base schedule and its metric
// baseline come from the session's caches instead of being rebuilt per
// request. On success the result is frozen as a new version and the
// branch head advances.
//
// A cancelled ctx yields the best-so-far solution with Version == -1 and
// no state change: only complete, deterministic solves become versions
// (MIMOS's commit rule — an update is either fully planned or not
// deployed at all).
func (s *Session) Commit(ctx context.Context, app *model.Application, p CommitParams) (*CommitResult, error) {
	if app == nil {
		return nil, fmt.Errorf("%w: no application", ErrIllegalCommit)
	}
	if p.Strategy == nil {
		return nil, fmt.Errorf("session: commit: no strategy")
	}
	branch := p.Branch
	if branch == "" {
		branch = MainBranch
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	// Legality + base preparation, under the session lock and the
	// request's "commit.legality" span: resolve the branch head, validate
	// the composed system (hyperperiod rule), restrict the frozen
	// composite and fetch the metric baseline.
	var (
		head   int
		newSys *model.System
		base   *sched.State
		bl     *metrics.Baseline
		reused bool
	)
	_, legalitySpan := obs.StartSpan(ctx, "commit.legality")
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		var ok bool
		head, ok = s.doc.Branches[branch]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownBranch, branch)
		}
		src, err := s.stateAtLocked(head)
		if err != nil {
			return err
		}
		newSys = &model.System{
			Arch: s.doc.System.Arch,
			Apps: append(append([]*model.Application(nil), src.System().Apps...), app),
		}
		if err := newSys.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrIllegalCommit, err)
		}
		// The hyperperiod is the LCM of every bus round and period, so an
		// unchanged one also keeps every TDMA round dividing the horizon.
		if hp := newSys.Hyperperiod(); hp != src.Horizon() {
			return fmt.Errorf("%w: application %q changes the hyperperiod from %v to %v",
				ErrIllegalCommit, app.Name, src.Horizon(), hp)
		}
		base, err = sched.Restrict(src, newSys, func(model.AppID) bool { return true })
		if err != nil {
			return fmt.Errorf("%w: %v", ErrIllegalCommit, err)
		}
		bl, reused, err = s.baselineAtLocked(head)
		return err
	}()
	legalitySpan.SetAttr("branch", branch)
	legalitySpan.End()
	if err != nil {
		return nil, err
	}

	prob, err := core.NewProblem(newSys, base, app, s.prof, s.weights)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIllegalCommit, err)
	}
	sol, err := core.Solve(ctx, prob, core.Options{
		Strategy:    p.Strategy,
		Parallelism: p.Parallelism,
		Baseline:    bl,
		Observer:    p.Observer,
	})
	if err != nil {
		return nil, err
	}
	res := &CommitResult{Version: -1, Parent: head, Branch: branch, Solution: sol, BaselineReused: reused}
	if sol.Interrupted {
		return res, nil
	}

	_, freezeSpan := obs.StartSpan(ctx, "commit.freeze")
	defer freezeSpan.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doc.Branches[branch] != head { // a rollback raced the solve
		return nil, ErrConflict
	}
	id := len(s.doc.Versions)
	vd := &VersionDoc{
		ID:          id,
		Parent:      head,
		App:         app,
		Mapping:     sol.Mapping,
		Strategy:    sol.Strategy,
		Evaluations: sol.Evaluations,
		Report:      sol.Report,
		Fingerprint: fingerprint(sol.State),
	}
	if hints := sol.Hints; len(hints.ProcStart) > 0 || len(hints.MsgStart) > 0 {
		vd.Hints = &hints
	}
	// Persist first: a failed append leaves the document as it was.
	if err := s.store.Append(s.doc.ID, &Entry{Version: vd, Branch: branch, Head: id}); err != nil {
		return nil, err
	}
	s.doc.Versions = append(s.doc.Versions, vd)
	s.doc.Branches[branch] = id
	s.states[id] = sol.State
	s.count(obs.CtrSessCommits)
	res.Version = id
	return res, nil
}

// Branch creates a new branch pointing at an existing version.
func (s *Session) Branch(name string, from int) error {
	if !branchNameRe.MatchString(name) {
		return fmt.Errorf("session: invalid branch name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.doc.Branches[name]; exists {
		return fmt.Errorf("%w: %q", ErrBranchExists, name)
	}
	if from < 0 || from >= len(s.doc.Versions) {
		return fmt.Errorf("%w: %d", ErrUnknownVersion, from)
	}
	if err := s.store.Append(s.doc.ID, &Entry{Branch: name, Head: from}); err != nil {
		return err
	}
	s.doc.Branches[name] = from
	s.count(obs.CtrSessBranches)
	return nil
}

// Rollback moves a branch head back to an ancestor version (or itself —
// a no-op rollback is legal). Versions that become unreachable stay in
// the tree for diffing but are no longer part of any surviving chain.
func (s *Session) Rollback(branch string, to int) error {
	if branch == "" {
		branch = MainBranch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	head, ok := s.doc.Branches[branch]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBranch, branch)
	}
	if to < 0 || to >= len(s.doc.Versions) {
		return fmt.Errorf("%w: %d", ErrUnknownVersion, to)
	}
	cur := head
	for cur != to && cur != noParent {
		cur = s.doc.Versions[cur].Parent
	}
	if cur != to {
		return fmt.Errorf("%w: version %d from head %d of %q", ErrNotAncestor, to, head, branch)
	}
	if err := s.store.Append(s.doc.ID, &Entry{Branch: branch, Head: to}); err != nil {
		return err
	}
	s.doc.Branches[branch] = to
	s.count(obs.CtrSessRollbacks)
	return nil
}

// Head returns the head version of a branch.
func (s *Session) Head(branch string) (int, error) {
	if branch == "" {
		branch = MainBranch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	head, ok := s.doc.Branches[branch]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownBranch, branch)
	}
	return head, nil
}

// Verify replays every surviving commit chain (each branch head) from
// scratch on a pristine copy of the document and checks each
// materialized composite against its stored fingerprint. It proves the
// store content alone reproduces the session, independent of any state
// this process has cached.
func (s *Session) Verify() error {
	s.mu.Lock()
	doc, err := s.doc.Clone()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	fresh := newSession(doc, discardStore{}, nil)
	names := make([]string, 0, len(doc.Branches))
	for name := range doc.Branches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fresh.StateAt(doc.Branches[name]); err != nil {
			return fmt.Errorf("branch %q: %w", name, err)
		}
	}
	return nil
}

// discardStore backs Verify's scratch session: it never persists.
type discardStore struct{}

func (discardStore) Put(*Doc) error              { return nil }
func (discardStore) Append(string, *Entry) error { return nil }
func (discardStore) Get(string) (*Doc, error)    { return nil, ErrNotFound }
func (discardStore) Delete(string) error         { return nil }
func (discardStore) List() ([]string, error)     { return nil, nil }
