// Command benchmark measures the incremental-design solver and its HTTP
// service from the outside, end to end, and attributes the time to the
// layers in a separate traced run. README.md describes the workloads, the
// metrics and how each layer metric maps onto an end-to-end one.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh -workload <name> -seed <n> [-seconds <s>] [-trace 0|1] [-out <file>]
//	bash benchmark/run.sh -compare <parent runs...> -- <change runs...>
//
// A run prints every metric as "workload metric value unit", then, as its
// last line, a JSON summary {"correct","attempted","failed","metrics"}.
// -trace 0 reports the end-to-end metrics, -trace 1 the per-layer ones.
// -out writes the run's full record (including the result digest) for
// -compare. The exit status is 1 when any operation failed or returned a
// wrong result, 2 on usage errors.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"incdes/internal/bench"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the solver
// or the service sees. An "op" is one solve (solver workloads), one
// request (svc-resubmit) or one session commit (svc-commit).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"mem_mb", "MB"},
}

// perLayer are the metrics of a traced run (see layers.go).
var perLayer = []metricDef{
	{"core.evals_per_s", "1/s"},
	{"core.evals_per_solve", "count"},
	{"core.candidate_us", "us"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.infeasible_ratio", "ratio"},
	{"core.objective_mean", "points"},
	{"sched.jobs_per_candidate", "count"},
	{"ttp.probes_per_findslot", "count"},
	{"sched.apply_us", "us"},
	{"metrics.evaluate_txn_us", "us"},
	{"sched.rollback_us", "us"},
	{"pack.c1p_us", "us"},
	{"pack.c1m_us", "us"},
	{"pack.c1m_bins", "count"},
	{"slack.dirty_gaps_us", "us"},
	{"sched.dirty_node_frac", "ratio"},
	{"metrics.full_eval_frac", "ratio"},
	{"metrics.new_baseline_us", "us"},
	{"sched.base_clone_us", "us"},
	{"sched.mapapp_ms", "ms"},
	{"replay.coverage", "ratio"},
	{"model.decode_ms", "ms"},
	{"export.doc_ms", "ms"},
	{"serve.request_self_ms_p50", "ms"},
	{"cache.lookup_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"core.solve_ms_p50", "ms"},
	{"session.commit_self_ms_p50", "ms"},
	{"session.legality_ms_p50", "ms"},
	{"session.freeze_ms_p50", "ms"},
	{"session.commit_growth", "ratio"},
	{"trace.overhead", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the contract's last stdout line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out writes it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Digest is the SHA-256 over the run's canonical result documents:
	// equal digests mean two builds produced byte-identical designs.
	Digest string `json:"result_digest"`
	// Raw holds the untraced run's timings before scaling to the
	// reference speed, and the reference-task times that scaled them.
	Raw        map[string]metricValue `json:"raw,omitempty"`
	FirstError string                 `json:"first_error,omitempty"`
	summary
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured duration")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := fs.String("out", "", "write the run record as JSON to this file")
	compare := fs.Bool("compare", false, "compare run records: -compare <parent...> -- <change...>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "benchmark: want -workload %s, -trace 0 or 1, and no extra arguments\n", workloadNames())
		return 2
	}
	rec, err := measure(w, w.scale, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	if rec.FirstError != "" {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed; first: %s\n", *name, rec.Failed, rec.Attempted, rec.FirstError)
	}
	printRecord(stdout, rec)
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// measure generates the workload's inputs, sets the program up, runs the
// timed ops and assembles the record. An untraced run sets up sc.setups
// times and reports the median set-up time; a traced run sets up once
// and alternates untraced and traced rounds, so trace.overhead compares
// the same inputs. Timings are scaled to the reference speed (see
// reference.go).
func measure(w *workload, sc scale, seed int64, seconds float64, traced bool) (*record, error) {
	in, err := w.generate(seed, sc)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.clients))
	rounds := sc.rounds(seconds, traced)
	setups := sc.setups
	if traced || setups < 1 {
		setups = 1
	}
	setupClock := newRefClock()
	var inst instance
	var setupS, rawSetupS []float64
	for k := 0; k < setups; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		setupClock.sample(5)
		t0 := time.Now()
		if inst, err = in.setup(rounds); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		setupClock.sample(5)
		rawSetupS = append(rawSetupS, t1.Sub(t0).Seconds())
		setupS = append(setupS, t1.Sub(t0).Seconds()*setupClock.scaleAt(t0, t1))
	}
	defer inst.close()

	var lt *layers
	if traced {
		lt = newLayers()
	}
	clock := newRefClock()
	samples, elapsed, memMB := closedLoop(inst, w.clients, rounds*inst.inputs(), lt, clock)
	rec := &record{Workload: w.name, Seed: seed, Trace: traced, summary: summary{Attempted: len(samples)}}
	for _, s := range samples {
		if s.err != nil {
			if rec.Failed == 0 {
				rec.FirstError = fmt.Sprintf("op %d: %v", s.index, s.err)
			}
			rec.Failed++
		}
	}
	rec.Correct = rec.Failed == 0
	scaled := func(s sample) float64 { return clock.scaleAt(s.start, s.start.Add(s.dur)) }
	unscaled := func(sample) float64 { return 1 }
	if !traced {
		p50, perSec := summarize(samples, elapsed, inst.balanced(), scaled)
		rawP50, rawPerSec := summarize(samples, elapsed, inst.balanced(), unscaled)
		rec.Metrics = map[string]metricValue{
			"setup_s":   {median(setupS), "s"},
			"op_p50_ms": {p50, "ms"},
			"ops_per_s": {perSec, "1/s"},
			"mem_mb":    {memMB, "MB"},
		}
		rec.Raw = map[string]metricValue{
			"setup_s":           {median(rawSetupS), "s"},
			"op_p50_ms":         {rawP50, "ms"},
			"ops_per_s":         {rawPerSec, "1/s"},
			"setup_ref_task_ms": {setupClock.medianMS(), "ms"},
			"loop_ref_task_ms":  {clock.medianMS(), "ms"},
			"peak_rss_mb":       {float64(bench.PeakRSS()) / (1 << 20), "MB"},
		}
	} else {
		var plain, withTrace []sample
		for _, s := range samples {
			if s.traced {
				withTrace = append(withTrace, s)
			} else {
				plain = append(plain, s)
			}
		}
		p50Plain, _ := summarize(plain, elapsed, inst.balanced(), scaled)
		p50Traced, _ := summarize(withTrace, elapsed, inst.balanced(), scaled)
		lt.overhead = p50Traced / p50Plain
		m, err := lt.collect(inst, clock)
		if err != nil {
			rec.FirstError = "traced run: " + err.Error()
			rec.Correct = false
		}
		rec.Metrics = m
	}
	rec.Digest = digest(inst.docs())
	return rec, nil
}

// digest hashes the canonical result documents in input order.
func digest(docs [][]byte) string {
	h := sha256.New()
	for _, d := range docs {
		fmt.Fprintf(h, "%d\n", len(d))
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func printRecord(w io.Writer, rec *record) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %v %s\n", rec.Workload, d.name, rec.Metrics[d.name].Value, d.unit)
	}
	raw := make([]string, 0, len(rec.Raw))
	for name := range rec.Raw {
		raw = append(raw, name)
	}
	sort.Strings(raw)
	for _, name := range raw {
		fmt.Fprintf(w, "%s raw.%s %v %s\n", rec.Workload, name, rec.Raw[name].Value, rec.Raw[name].Unit)
	}
	fmt.Fprintf(w, "%s result_digest %s\n", rec.Workload, rec.Digest)
	line, _ := json.Marshal(rec.summary) // plain floats and strings: cannot fail
	fmt.Fprintln(w, string(line))
}

func writeRecord(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
