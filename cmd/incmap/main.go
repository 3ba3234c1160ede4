// Command incmap generates, inspects, and maps incremental-design systems.
//
// Usage:
//
//	incmap generate [-nodes N] [-clusters K] [-inter-frac F]
//	                [-existing P] [-current P] [-seed S] [-o file]
//	incmap inspect  [-sys file]
//	incmap map      [-sys file] [-strategy ah|mh|sa|portfolio] [-gantt] [-medl]
//	                [-analyze] [-export file.json] [-export-bin file.img]
//	                [-parallel N] [-timeout D] [-sa-restarts K]
//	                [-trace file.jsonl] [-stats-out file.json] [-convergence]
//	incmap verify   [-sys file] [-design file.json]
//	incmap simulate [-sys file] [-design file.json] [-seed S]
//	                [-overrun-prob P] [-overrun-factor F]
//	incmap convert  [-tgff file.tgff] [-slot-bytes B] [-o file.json]
//	incmap session  init|commit|branch|rollback|log|diff|replay [-store DIR] ...
//
// generate emits a complete random test-case system as JSON (the last
// application in the file is the current one). inspect summarizes a
// system file. map freezes every application except the last (scheduling
// them in arrival order with the initial-mapping algorithm), maps the
// last one with the chosen strategy, and reports the design metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"incdes/internal/analysis"
	"incdes/internal/core"
	"incdes/internal/exec"
	"incdes/internal/export"
	"incdes/internal/gen"
	"incdes/internal/model"
	"incdes/internal/obs"
	"incdes/internal/serve"
	"incdes/internal/textplot"
	"incdes/internal/tgff"
	"incdes/internal/tm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "map":
		err = cmdMap(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "session":
		err = cmdSession(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "incmap:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  incmap generate [-nodes N] [-clusters K] [-inter-frac F]
                  [-existing P] [-current P] [-seed S] [-o file]
  incmap inspect  [-sys file]
  incmap map      [-sys file] [-strategy ah|mh|sa|portfolio] [-gantt] [-medl]
                  [-parallel N] [-timeout D] [-sa-restarts K]
                  [-trace file.jsonl] [-stats-out file.json] [-convergence]
  incmap verify   [-sys file] [-design file.json]
  incmap simulate [-sys file] [-design file.json] [-seed S] [-overrun-prob P]
  incmap convert  [-tgff file.tgff] [-slot-bytes B] [-o file.json]
  incmap session  init|commit|branch|rollback|log|diff|replay [-store DIR] ...`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	nodes := fs.Int("nodes", 10, "number of processing nodes (per cluster with -clusters)")
	clusters := fs.Int("clusters", 1, "TDMA clusters; >1 chains buses with gateway nodes")
	interFrac := fs.Float64("inter-frac", 0.2, "with -clusters: fraction of processes homed on a neighboring cluster")
	existing := fs.Int("existing", 100, "processes in existing applications")
	current := fs.Int("current", 40, "processes in the current application")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	cfg := gen.Default()
	cfg.Nodes = *nodes
	if *clusters > 1 {
		cfg = gen.Multicluster(*clusters, *nodes, *interFrac)
	}
	tc, err := gen.MakeTestCase(cfg, *seed, *existing, *current)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return tc.Sys.WriteJSON(w)
}

func loadSystem(path string) (*model.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return model.ReadSystem(f)
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	sysPath := fs.String("sys", "system.json", "system JSON file")
	fs.Parse(args)

	sys, err := loadSystem(*sysPath)
	if err != nil {
		return err
	}
	if len(sys.Arch.Buses) == 1 {
		bus := sys.Arch.Buses[0]
		fmt.Printf("architecture: %d nodes, TDMA round %v (%d slots)\n",
			len(sys.Arch.Nodes), bus.RoundLen(), bus.NumSlots())
	} else {
		fmt.Printf("architecture: %d nodes, %d TDMA buses, %d gateways\n",
			len(sys.Arch.Nodes), len(sys.Arch.Buses), len(sys.Arch.Gateways()))
		for _, bus := range sys.Arch.Buses {
			fmt.Printf("  bus %d: round %v (%d slots)\n", bus.ID, bus.RoundLen(), bus.NumSlots())
		}
	}
	fmt.Printf("hyperperiod:  %v\n", sys.Hyperperiod())
	for _, a := range sys.Apps {
		fmt.Printf("application %q: %d graphs, %d processes, %d messages\n",
			a.Name, len(a.Graphs), a.NumProcs(), a.NumMsgs())
		for _, g := range a.Graphs {
			fmt.Printf("  graph %q: %d procs, %d msgs, period %v, deadline %v\n",
				g.Name, len(g.Procs), len(g.Msgs), g.Period, g.Deadline)
		}
	}
	return nil
}

// cmdVerify re-validates an exported design against its system model:
// the independent check a deployment pipeline runs before flashing.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	sysPath := fs.String("sys", "system.json", "system JSON file")
	designPath := fs.String("design", "design.json", "design JSON file")
	fs.Parse(args)

	if _, _, err := loadVerified(*sysPath, *designPath); err != nil {
		return err
	}
	fmt.Printf("design %s implements %s: all constraints hold\n", *designPath, *sysPath)
	return nil
}

// loadVerified reads a system and a design and checks that the design
// implements the system, printing every violated constraint to stderr.
func loadVerified(sysPath, designPath string) (*model.System, *export.Design, error) {
	sys, err := loadSystem(sysPath)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(designPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	design, err := export.ReadDesign(f)
	if err != nil {
		return nil, nil, err
	}
	errs := export.Check(design, sys, sys.Apps...)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "violation:", e)
	}
	if len(errs) != 0 {
		return nil, nil, fmt.Errorf("%d constraint violations", len(errs))
	}
	return sys, design, nil
}

// cmdConvert imports a TGFF task-graph file (the co-design community's
// benchmark format) as a single-application system around a TDMA bus.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	tgffPath := fs.String("tgff", "", "TGFF input file")
	name := fs.String("name", "tgff", "application name")
	slotBytes := fs.Int("slot-bytes", 16, "TDMA slot capacity in bytes")
	byteTime := fs.Int64("byte-time", 1, "bus time per byte")
	overhead := fs.Int64("slot-overhead", 4, "per-slot overhead time")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *tgffPath == "" {
		return fmt.Errorf("convert: -tgff is required")
	}
	f, err := os.Open(*tgffPath)
	if err != nil {
		return err
	}
	defer f.Close()
	parsed, err := tgff.Parse(f)
	if err != nil {
		return err
	}
	sys, err := parsed.Build(*name, tgff.BusConfig{
		SlotBytes:    *slotBytes,
		ByteTime:     tm.Time(*byteTime),
		SlotOverhead: tm.Time(*overhead),
	})
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	return sys.WriteJSON(w)
}

// cmdSimulate replays one hyperperiod of an exported design with sampled
// execution times (optionally injecting WCET overruns) and reports every
// broken time-triggered assumption.
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	sysPath := fs.String("sys", "system.json", "system JSON file")
	designPath := fs.String("design", "design.json", "design JSON file")
	seed := fs.Int64("seed", 1, "execution-time sampling seed")
	overrunProb := fs.Float64("overrun-prob", 0, "probability an activation exceeds its WCET")
	overrunFactor := fs.Float64("overrun-factor", 1.5, "WCET multiple of an injected overrun")
	fs.Parse(args)

	// The executor assumes a design that implements the system.
	sys, design, err := loadVerified(*sysPath, *designPath)
	if err != nil {
		return err
	}
	res, err := exec.Run(design, sys, sys.Apps, exec.Options{
		Seed:          *seed,
		OverrunProb:   *overrunProb,
		OverrunFactor: *overrunFactor,
	})
	if err != nil {
		return err
	}
	fmt.Printf("executed %d activations and %d frames over %v; dynamic slack %v\n",
		res.Activations, res.Frames, design.Horizon, res.TotalIdle)
	if len(res.Violations) == 0 {
		fmt.Println("no time-triggered assumptions violated")
		return nil
	}
	for _, v := range res.Violations {
		fmt.Println("violation:", v)
	}
	return fmt.Errorf("%d violations", len(res.Violations))
}

func cmdMap(args []string) error {
	fs := flag.NewFlagSet("map", flag.ExitOnError)
	sysPath := fs.String("sys", "system.json", "system JSON file")
	strategy := fs.String("strategy", "mh", "mapping strategy: ah, mh, sa or portfolio")
	gantt := fs.Bool("gantt", false, "print a Gantt chart of the result")
	medl := fs.Bool("medl", false, "print the resulting MEDL")
	analyze := fs.Bool("analyze", false, "print response times and utilization")
	svgPath := fs.String("svg", "", "write an SVG Gantt chart to this file")
	exportJSON := fs.String("export", "", "write the deployable design as JSON to this file")
	exportBin := fs.String("export-bin", "", "write the binary design image to this file")
	saIters := fs.Int("sa-iters", 0, "SA iterations (0 = default)")
	saRestarts := fs.Int("sa-restarts", 0, "independent SA restart chains (0 = 1)")
	parallel := fs.Int("parallel", 0, "evaluation workers (0 = one per CPU)")
	timeout := fs.Duration("timeout", 0, "abort the strategy after this long, keeping the best design so far (0 = none)")
	tracePath := fs.String("trace", "", "write the strategy's decision-event trace as JSONL to this file")
	statsPath := fs.String("stats-out", "", "write engine/scheduler/bus statistics as JSON to this file")
	convergence := fs.Bool("convergence", false, "print the cost-vs-iteration convergence curve")
	fs.Parse(args)

	// Ctrl-C (or the timeout) cancels the strategy; the best design found
	// so far is still reported, validated, and exported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sys, err := loadSystem(*sysPath)
	if err != nil {
		return err
	}
	// Freeze everything except the last application and resolve the
	// strategy exactly as the service does.
	p, err := serve.BuildProblem(sys, "")
	if err != nil {
		return err
	}
	current, prof := p.Current, p.Profile
	strat, err := serve.SolveParams{Strategy: *strategy, SAIters: *saIters, SARestarts: *saRestarts}.Resolve()
	if err != nil {
		return err
	}
	runStart := time.Now()
	var saSeed int64 // recorded in the stats meta; 0 = not seed-driven
	if *strategy == "sa" || *strategy == "portfolio" {
		saSeed = core.DefaultSAOptions().Seed
	}
	// Observability: -stats-out attaches a registry, -trace/-convergence
	// one trace collector. With none of them set observer stays nil and
	// the solve path runs exactly as uninstrumented.
	var observer *obs.Observer
	var reg *obs.Registry
	var traceFile *os.File
	var collector *obs.Collector
	if *statsPath != "" {
		reg = obs.NewRegistry()
	}
	if *tracePath != "" {
		// Created now so a bad path fails before the solve; the events
		// are written once it returns.
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
	}
	if *tracePath != "" || *convergence {
		collector = &obs.Collector{}
	}
	if reg != nil || collector != nil {
		observer = &obs.Observer{Stats: reg, Tracer: collector}
	}

	sol, err := core.Solve(ctx, p, core.Options{Strategy: strat, Parallelism: *parallel, Observer: observer})
	if err != nil {
		return err
	}

	design, err := export.Build(sol.State)
	if err != nil {
		return fmt.Errorf("internal error: schedule fails validation: %v", err)
	}
	if errs := export.Check(design, sys, sys.Apps...); len(errs) != 0 {
		return fmt.Errorf("internal error: schedule fails validation: %v", errs[0])
	}

	if sol.Interrupted {
		fmt.Println("interrupted: reporting the best design found so far")
	}
	fmt.Printf("strategy %s mapped %q in %v (%d design alternatives examined)\n",
		sol.Strategy, current.Name, sol.Elapsed.Round(time.Millisecond), sol.Evaluations)
	fmt.Printf("metrics: %v\n", sol.Report)
	fmt.Printf("future profile: Tmin=%v tneed=%v bneed=%dB\n", prof.Tmin, prof.TNeed, prof.BNeedBytes)
	if traceFile != nil {
		if err := obs.WriteJSONL(traceFile, collector.Events()); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		// Replay check: the trace must stand on its own, so its recorded
		// final cost has to match the objective Solve just reported.
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		events, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("re-reading trace: %w", err)
		}
		final, ok := obs.FinalCost(events)
		if !ok || final != sol.Report.Objective {
			return fmt.Errorf("trace %s replays to cost %.6f, solver reported %.6f", *tracePath, final, sol.Report.Objective)
		}
		fmt.Printf("trace written to %s (%d events; replayed final cost matches %.2f)\n",
			*tracePath, len(events), final)
	}
	if *convergence {
		fmt.Println()
		fmt.Print(textplot.Convergence(
			fmt.Sprintf("objective C vs committed design (%s)", sol.Strategy),
			obs.CostCurve(collector.Events()), 0, 0))
	}
	if reg != nil {
		snap := reg.Snapshot()
		snap.Meta = obs.NewRunMeta(runStart, saSeed)
		if err := obs.WriteJSONFile(*statsPath, snap); err != nil {
			return err
		}
		fmt.Printf("statistics written to %s\n", *statsPath)
	}
	if *gantt {
		fmt.Println()
		fmt.Print(textplot.Gantt(sol.State, 100))
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(textplot.GanttSVG(sol.State, 1000)), 0o644); err != nil {
			return err
		}
		fmt.Printf("SVG Gantt written to %s\n", *svgPath)
	}
	if *analyze {
		rep, err := analysis.Analyze(sol.State, sys.Apps...)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(rep.String())
	}
	if *exportJSON != "" {
		f, err := os.Create(*exportJSON)
		if err != nil {
			return err
		}
		if err := design.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("design written to %s\n", *exportJSON)
	}
	if *exportBin != "" {
		f, err := os.Create(*exportBin)
		if err != nil {
			return err
		}
		if err := design.EncodeBinary(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("binary image written to %s\n", *exportBin)
	}
	if *medl {
		fmt.Printf("\nMEDL (%d entries):\n", len(design.MEDL))
		multi := len(sys.Arch.Buses) > 1
		for i, e := range design.MEDL {
			if i == 40 {
				fmt.Printf("  … %d more\n", len(design.MEDL)-40)
				break
			}
			if multi {
				fmt.Printf("  bus %d round %3d slot %2d off %2dB: msg %4d occ %d hop %d (%dB) node %d [%v,%v)\n",
					e.Bus, e.Round, e.Slot, e.Offset, e.Msg, e.Occ, e.Hop, e.Bytes, e.Owner, e.Start, e.End)
				continue
			}
			fmt.Printf("  round %3d slot %2d off %2dB: msg %4d occ %d (%dB) node %d [%v,%v)\n",
				e.Round, e.Slot, e.Offset, e.Msg, e.Occ, e.Bytes, e.Owner, e.Start, e.End)
		}
	}
	return nil
}
