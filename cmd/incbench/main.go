// Command incbench regenerates the paper's experimental figures.
//
// Usage:
//
//	incbench -fig deviation    # avg deviation from near-optimal (paper Fig 1)
//	incbench -fig runtime      # avg execution time (paper Fig 2)
//	incbench -fig futurefit    # % of future applications mapped (paper Fig 3)
//	incbench -fig ablation     # extra: MH design-choice ablation
//	incbench -fig relaxed      # extra: modification cost of the next increment
//	incbench -fig criteria     # extra: MH guided by C1 only or C2 only
//	incbench -fig portfolio    # extra: strategy-portfolio racer vs best single
//	incbench -fig multicluster # extra: deviation sweep over 1..3 TDMA clusters
//	incbench -fig all          # deviation, runtime, futurefit, ablation,
//	                           # relaxed and criteria
//
// The -quick flag shrinks the sweep for a fast smoke run; -cases and
// -sizes control the full sweep (the paper used 50 cases per point —
// expect that to take hours, exactly like the original SA reference did).
//
// -stats-out FILE writes the run's observability snapshot as JSON
// (atomically). Performance is measured by the benchmark module, not
// here; see benchmark/README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"incdes/internal/core"
	"incdes/internal/eval"
	"incdes/internal/gen"
	"incdes/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: deviation, runtime, futurefit, ablation, relaxed, criteria, portfolio, multicluster, all")
	cases := flag.Int("cases", 3, "test cases per sweep point")
	existing := flag.Int("existing", 400, "processes in existing applications")
	sizes := flag.String("sizes", "", "comma-separated current-application sizes (default paper sweep)")
	seed := flag.Int64("seed", 1, "base seed")
	quick := flag.Bool("quick", false, "small fast sweep (overrides -sizes/-cases/-existing)")
	parallel := flag.Int("parallel", 1, "concurrent test cases (use 1 for trustworthy runtime measurements; <0 means one per CPU)")
	stratParallel := flag.Int("strategy-parallel", 1, "evaluation workers inside each strategy run (use 1 for trustworthy runtime measurements; <0 means one per CPU)")
	verbose := flag.Bool("v", false, "log per-case progress to stderr")
	statsPath := flag.String("stats-out", "", "write sweep-wide engine/scheduler/bus statistics as JSON to this file")
	flag.Parse()
	start := time.Now()

	// Ctrl-C aborts the sweep: partial sweeps would misrepresent the
	// figures, so the runners stop with the context's error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := eval.Options{
		Config:           gen.Default(),
		Existing:         *existing,
		Cases:            *cases,
		BaseSeed:         *seed,
		Parallel:         *parallel,
		StrategyParallel: *stratParallel,
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "incbench: bad -sizes:", err)
				os.Exit(2)
			}
			o.Sizes = append(o.Sizes, n)
		}
	}
	if *quick {
		o.Config.Nodes = 5
		o.Config.GraphMinProcs = 5
		o.Config.GraphMaxProcs = 12
		o.Sizes = []int{20, 40, 80}
		o.Existing = 100
		o.Cases = 2
		o.SAOptions = core.SAOptions{Iterations: 1500}
		o.FutureProcs = 25
	}
	if *verbose {
		o.Progress = os.Stderr
	}
	var reg *obs.Registry
	if *statsPath != "" {
		reg = obs.NewRegistry()
		o.Observer = &obs.Observer{Stats: reg}
	}

	// deviation and runtime come from the same sweep; cache it so that
	// -fig all measures it only once.
	var devRes *eval.DeviationResult
	deviation := func() (*eval.DeviationResult, error) {
		if devRes != nil {
			return devRes, nil
		}
		var err error
		devRes, err = eval.RunDeviation(ctx, o)
		return devRes, err
	}

	run := func(name string) error {
		switch name {
		case "deviation", "runtime":
			res, err := deviation()
			if err != nil {
				return err
			}
			if name == "deviation" {
				fmt.Print(res.DeviationChart())
			} else {
				fmt.Print(res.RuntimeChart())
			}
			fmt.Println()
			fmt.Print(res.Table())
		case "futurefit":
			res, err := eval.RunFutureFit(ctx, o)
			if err != nil {
				return err
			}
			fmt.Print(res.FitChart())
		case "ablation":
			res, err := eval.RunAblation(ctx, o)
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
		case "criteria":
			res, err := eval.RunCriterionAblation(ctx, o)
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
		case "relaxed":
			res, err := eval.RunRelaxed(ctx, o)
			if err != nil {
				return err
			}
			fmt.Println("modification cost of admitting the future application")
			fmt.Print(res.Table())
		case "portfolio":
			res, err := eval.RunPortfolio(ctx, o)
			if err != nil {
				return err
			}
			fmt.Println("portfolio racer vs the best single strategy")
			fmt.Print(res.Table())
		case "multicluster":
			res, err := eval.RunMulticluster(ctx, o)
			if err != nil {
				return err
			}
			fmt.Println("deviation sweep over multi-cluster platforms (buses chained by gateways)")
			fmt.Print(res.Table())
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
		fmt.Println()
		return nil
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = []string{"deviation", "runtime", "futurefit", "ablation", "relaxed", "criteria"}
	}
	for _, f := range figs {
		if err := run(f); err != nil {
			fmt.Fprintln(os.Stderr, "incbench:", err)
			os.Exit(1)
		}
	}
	if reg != nil {
		snap := reg.Snapshot()
		snap.Meta = obs.NewRunMeta(start, *seed)
		if err := obs.WriteJSONFile(*statsPath, snap); err != nil {
			fmt.Fprintln(os.Stderr, "incbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "statistics written to %s\n", *statsPath)
	}
}
