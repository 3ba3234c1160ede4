package main

// incmap session: scripted replay of versioned design sessions against a
// local on-disk store — the same session model cmd/incmapd serves over
// HTTP, usable offline and in CI. A session is opened once over a base
// system, then grown one committed application at a time; branches and
// rollbacks explore what-if alternatives; replay re-derives every branch
// head from the stored log and verifies the recorded fingerprints.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"incdes/internal/model"
	"incdes/internal/serve"
	"incdes/internal/session"
)

func cmdSession(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf(`session: missing subcommand (init, commit, branch, rollback, log, diff, replay)`)
	}
	switch args[0] {
	case "init":
		return cmdSessionInit(args[1:])
	case "commit":
		return cmdSessionCommit(args[1:])
	case "branch":
		return cmdSessionBranch(args[1:])
	case "rollback":
		return cmdSessionRollback(args[1:])
	case "log":
		return cmdSessionLog(args[1:])
	case "diff":
		return cmdSessionDiff(args[1:])
	case "replay":
		return cmdSessionReplay(args[1:])
	default:
		return fmt.Errorf("session: unknown subcommand %q", args[0])
	}
}

// openManager opens the on-disk store behind every session subcommand.
func openManager(dir string) (*session.Manager, error) {
	store, err := session.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	return session.NewManager(store, nil)
}

func cmdSessionInit(args []string) error {
	fs := flag.NewFlagSet("session init", flag.ExitOnError)
	dir := fs.String("store", ".incmap-sessions", "session store directory")
	id := fs.String("id", "", "session id (default: next free sN)")
	sysPath := fs.String("sys", "system.json", "base system JSON file")
	excludeLast := fs.Bool("exclude-last", false, "open over the system minus its last application (commit it separately)")
	fs.Parse(args)

	sys, err := loadSystem(*sysPath)
	if err != nil {
		return err
	}
	if *excludeLast {
		if len(sys.Apps) < 2 {
			return fmt.Errorf("session init: -exclude-last needs at least two applications")
		}
		sys = &model.System{Arch: sys.Arch, Apps: sys.Apps[:len(sys.Apps)-1]}
	}
	m, err := openManager(*dir)
	if err != nil {
		return err
	}
	sess, err := m.Open(sys, nil, *id)
	if err != nil {
		return err
	}
	doc, err := sess.Doc()
	if err != nil {
		return err
	}
	fmt.Printf("session %s opened over %d applications (objective %.4f)\n",
		sess.ID(), len(sys.Apps), doc.Versions[session.RootVersion].Report.Objective)
	return nil
}

// sessionApp resolves the application to commit: either a standalone
// application JSON (-app-file), or one application picked by name out of
// a system file (-sys -app) — the convenient path when driving a session
// from `incmap generate` output.
func sessionApp(appFile, sysPath, appName string) (*model.Application, error) {
	if appFile != "" {
		f, err := os.Open(appFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return model.ReadApplication(f)
	}
	if sysPath == "" || appName == "" {
		return nil, fmt.Errorf("session commit: need -app-file, or -sys with -app")
	}
	sys, err := loadSystem(sysPath)
	if err != nil {
		return nil, err
	}
	for _, a := range sys.Apps {
		if a.Name == appName {
			return a, nil
		}
	}
	return nil, fmt.Errorf("session commit: system %s has no application %q", sysPath, appName)
}

func cmdSessionCommit(args []string) error {
	fs := flag.NewFlagSet("session commit", flag.ExitOnError)
	dir := fs.String("store", ".incmap-sessions", "session store directory")
	id := fs.String("id", "", "session id")
	appFile := fs.String("app-file", "", "application JSON file to commit")
	sysPath := fs.String("sys", "", "system JSON file to pick the application from")
	appName := fs.String("app", "", "application name inside -sys")
	branch := fs.String("branch", "", "branch to advance (default main)")
	strategy := fs.String("strategy", "mh", "mapping strategy: ah, mh, sa or portfolio")
	saIters := fs.Int("sa-iters", 0, "SA iterations (0 = default)")
	saRestarts := fs.Int("sa-restarts", 0, "independent SA restart chains (0 = 1)")
	parallel := fs.Int("parallel", 0, "evaluation workers (0 = one per CPU)")
	timeout := fs.Duration("timeout", 0, "abort the solve after this long (0 = none)")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("session commit: -id is required")
	}

	strat, err := serve.SolveParams{Strategy: *strategy, SAIters: *saIters, SARestarts: *saRestarts}.Resolve()
	if err != nil {
		return fmt.Errorf("session commit: %w", err)
	}
	app, err := sessionApp(*appFile, *sysPath, *appName)
	if err != nil {
		return err
	}
	m, err := openManager(*dir)
	if err != nil {
		return err
	}
	sess, err := m.Get(*id)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := sess.Commit(ctx, app, session.CommitParams{
		Branch:      *branch,
		Strategy:    strat,
		Parallelism: *parallel,
	})
	if err != nil {
		return err
	}
	if res.Version < 0 {
		fmt.Printf("interrupted: best design so far scored %.4f; no version created\n",
			res.Solution.Report.Objective)
		return nil
	}
	fmt.Printf("committed %q as version %d (parent %d, branch %s) in %v\n",
		app.Name, res.Version, res.Parent, res.Branch, time.Since(start).Round(time.Millisecond))
	fmt.Printf("strategy %s examined %d design alternatives; objective %.4f\n",
		res.Solution.Strategy, res.Solution.Evaluations, res.Solution.Report.Objective)
	return nil
}

func cmdSessionBranch(args []string) error {
	fs := flag.NewFlagSet("session branch", flag.ExitOnError)
	dir := fs.String("store", ".incmap-sessions", "session store directory")
	id := fs.String("id", "", "session id")
	name := fs.String("name", "", "new branch name")
	from := fs.Int("from", -1, "version to branch from (default: head of main)")
	fs.Parse(args)
	if *id == "" || *name == "" {
		return fmt.Errorf("session branch: -id and -name are required")
	}
	m, err := openManager(*dir)
	if err != nil {
		return err
	}
	sess, err := m.Get(*id)
	if err != nil {
		return err
	}
	v := *from
	if v < 0 {
		if v, err = sess.Head(session.MainBranch); err != nil {
			return err
		}
	}
	if err := sess.Branch(*name, v); err != nil {
		return err
	}
	fmt.Printf("branch %s created at version %d\n", *name, v)
	return nil
}

func cmdSessionRollback(args []string) error {
	fs := flag.NewFlagSet("session rollback", flag.ExitOnError)
	dir := fs.String("store", ".incmap-sessions", "session store directory")
	id := fs.String("id", "", "session id")
	branch := fs.String("branch", "", "branch to roll back (default main)")
	to := fs.Int("to", -1, "ancestor version to move the head to")
	fs.Parse(args)
	if *id == "" || *to < 0 {
		return fmt.Errorf("session rollback: -id and -to are required")
	}
	m, err := openManager(*dir)
	if err != nil {
		return err
	}
	sess, err := m.Get(*id)
	if err != nil {
		return err
	}
	if err := sess.Rollback(*branch, *to); err != nil {
		return err
	}
	b := *branch
	if b == "" {
		b = session.MainBranch
	}
	fmt.Printf("branch %s rolled back to version %d\n", b, *to)
	return nil
}

func cmdSessionLog(args []string) error {
	fs := flag.NewFlagSet("session log", flag.ExitOnError)
	dir := fs.String("store", ".incmap-sessions", "session store directory")
	id := fs.String("id", "", "session id (empty: list all sessions)")
	fs.Parse(args)

	m, err := openManager(*dir)
	if err != nil {
		return err
	}
	if *id == "" {
		ids, err := m.List()
		if err != nil {
			return err
		}
		for _, sid := range ids {
			fmt.Println(sid)
		}
		return nil
	}
	sess, err := m.Get(*id)
	if err != nil {
		return err
	}
	doc, err := sess.Doc()
	if err != nil {
		return err
	}
	heads := map[int][]string{}
	for name, v := range doc.Branches {
		heads[v] = append(heads[v], name)
	}
	fmt.Printf("session %s: %d versions, %d branches\n", doc.ID, len(doc.Versions), len(doc.Branches))
	for _, v := range doc.Versions {
		marks := heads[v.ID]
		sort.Strings(marks)
		label := "(root)"
		if v.App != nil {
			label = fmt.Sprintf("%q via %s (%d evals)", v.App.Name, v.Strategy, v.Evaluations)
		}
		fmt.Printf("  v%-3d parent %-3d objective %8.4f  %s", v.ID, v.Parent, v.Report.Objective, label)
		for _, b := range marks {
			fmt.Printf("  <-%s", b)
		}
		fmt.Println()
	}
	return nil
}

func cmdSessionDiff(args []string) error {
	fs := flag.NewFlagSet("session diff", flag.ExitOnError)
	dir := fs.String("store", ".incmap-sessions", "session store directory")
	id := fs.String("id", "", "session id")
	from := fs.Int("from", 0, "older version")
	to := fs.Int("to", -1, "newer version (default: head of main)")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("session diff: -id is required")
	}
	m, err := openManager(*dir)
	if err != nil {
		return err
	}
	sess, err := m.Get(*id)
	if err != nil {
		return err
	}
	v := *to
	if v < 0 {
		if v, err = sess.Head(session.MainBranch); err != nil {
			return err
		}
	}
	d, err := sess.Diff(*from, v)
	if err != nil {
		return err
	}
	fmt.Println(d.String())
	for _, p := range d.Procs {
		switch p.Kind {
		case session.DeltaAdded:
			fmt.Printf("  + proc %d (%s) on node %d at %v\n", p.Proc, p.App, p.ToNode, p.ToStart)
		case session.DeltaRemoved:
			fmt.Printf("  - proc %d (%s) from node %d at %v\n", p.Proc, p.App, p.FromNode, p.FromStart)
		case session.DeltaMoved:
			fmt.Printf("  ~ proc %d (%s) node %d -> %d\n", p.Proc, p.App, p.FromNode, p.ToNode)
		case session.DeltaShifted:
			fmt.Printf("  ~ proc %d (%s) start %v -> %v on node %d\n", p.Proc, p.App, p.FromStart, p.ToStart, p.ToNode)
		}
	}
	return nil
}

func cmdSessionReplay(args []string) error {
	fs := flag.NewFlagSet("session replay", flag.ExitOnError)
	dir := fs.String("store", ".incmap-sessions", "session store directory")
	id := fs.String("id", "", "session id")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("session replay: -id is required")
	}
	m, err := openManager(*dir)
	if err != nil {
		return err
	}
	sess, err := m.Get(*id)
	if err != nil {
		return err
	}
	if err := sess.Verify(); err != nil {
		return err
	}
	doc, err := sess.Doc()
	if err != nil {
		return err
	}
	fmt.Printf("session %s verified: %d branch heads replay to their stored fingerprints\n",
		doc.ID, len(doc.Branches))
	return nil
}
