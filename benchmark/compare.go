package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// readSpec loads BENCHMARK.json from the working directory or its
// parent (the repository root, seen from the benchmark's directory).
func readSpec() (*spec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// runCompare judges a change against its parent from paired run records
// (-out files), one verdict per (workload, end-to-end metric), with
// BENCHMARK.json's bounds:
//
//   - better: the change wins at least 9 of 10 pairs and the medians
//     differ by more than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - unresolved: fewer than 10 pairs, or the parent's spread is wider
//     than the bound and not every change run beats every parent run;
//   - unchanged: otherwise.
//
// Pairs are formed in argument order, so list the runs in the order they
// alternated. Where an end-to-end metric moved, the layer metrics of the
// traced records that moved most are listed. The exit status is 1 when a
// metric got worse, a run failed or the result digests differ.
func runCompare(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: benchmark -compare <parent runs...> -- <change runs...>")
		return 2
	}
	s, err := readSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	parent, err := readRecords(args[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	change, err := readRecords(args[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compare(s, parent, change, stdout)
}

func readRecords(paths []string) ([]*record, error) {
	var out []*record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// side groups one commit's records of a workload.
type side struct{ plain, traced []*record }

func group(recs []*record) map[string]*side {
	out := map[string]*side{}
	for _, r := range recs {
		sd := out[r.Workload]
		if sd == nil {
			sd = &side{}
			out[r.Workload] = sd
		}
		if r.Trace {
			sd.traced = append(sd.traced, r)
		} else {
			sd.plain = append(sd.plain, r)
		}
	}
	return out
}

func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func compare(s *spec, parent, change []*record, w io.Writer) int {
	status := 0
	pg, cg := group(parent), group(change)
	var names []string
	for n := range pg {
		if cg[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "no workload has runs on both sides")
		return 1
	}
	for _, wl := range names {
		p, c := pg[wl], cg[wl]
		if failed(p) < failed(c) {
			fmt.Fprintf(w, "%s FAIL: the change failed %d ops, the parent %d\n", wl, failed(c), failed(p))
			status = 1
		}
		if d := digestDiff(p, c); d != "" {
			fmt.Fprintf(w, "%s FAIL: %s\n", wl, d)
			status = 1
		}
		moved := false
		for _, m := range s.EndToEnd {
			pv, cv := values(p.plain, m.Name), values(c.plain, m.Name)
			v := verdict(m, pv, cv)
			if v == "worse" {
				status = 1
			}
			if v == "better" || v == "worse" {
				moved = true
			}
			fmt.Fprintf(w, "%s %s %s: parent %s, change %s, %d pairs\n", wl, m.Name, v, describe(pv), describe(cv), min(len(pv), len(cv)))
		}
		if moved {
			layerReport(w, wl, s, p.traced, c.traced)
		}
	}
	return status
}

func failed(sd *side) int {
	n := 0
	for _, r := range append(append([]*record(nil), sd.plain...), sd.traced...) {
		n += r.Failed
	}
	return n
}

// digestDiff reports the first seed whose result digests differ between
// the two sides.
func digestDiff(p, c *side) string {
	seen := map[int64]string{}
	for _, r := range append(append([]*record(nil), p.plain...), p.traced...) {
		seen[r.Seed] = r.Digest
	}
	for _, r := range append(append([]*record(nil), c.plain...), c.traced...) {
		if d, ok := seen[r.Seed]; ok && d != r.Digest {
			return fmt.Sprintf("seed %d: result digests differ (%.12s vs %.12s)", r.Seed, d, r.Digest)
		}
	}
	return ""
}

func verdict(m specMetric, pv, cv []float64) string {
	pairs := min(len(pv), len(cv))
	if pairs < 10 {
		return "unresolved"
	}
	lower := m.Better == "lower"
	gain := func(from, to float64) float64 { // positive when to is better
		if lower {
			return from - to
		}
		return to - from
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if gain(pv[i], cv[i]) > 0 {
			wins++
		}
	}
	q1, pMed, q3 := quartiles(pv)
	cMed := median(cv)
	switch {
	case 10*wins >= 9*pairs && math.Abs(cMed-pMed) > q3-q1 && gain(pMed, cMed) > 0:
		return "better"
	case -gain(pMed, cMed) > m.Bound*math.Abs(pMed):
		return "worse"
	case (q3-q1) > m.Bound*math.Abs(pMed) && !allBetter(pv, cv, gain):
		return "unresolved"
	}
	return "unchanged"
}

func allBetter(pv, cv []float64, gain func(from, to float64) float64) bool {
	for _, p := range pv {
		for _, c := range cv {
			if gain(p, c) <= 0 {
				return false
			}
		}
	}
	return true
}

func describe(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%v", xs)
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("median %.4g [IQR %.4g..%.4g]", q2, q1, q3)
}

// layerReport lists the per-layer metrics whose medians moved most
// between the two sides' traced runs: where a regression or gain lives.
func layerReport(w io.Writer, wl string, s *spec, p, c []*record) {
	if len(p) == 0 || len(c) == 0 {
		fmt.Fprintf(w, "%s layers: no traced runs on both sides (run with -trace 1 -out)\n", wl)
		return
	}
	type move struct {
		name     string
		from, to float64
	}
	var moves []move
	for _, m := range s.PerLayer {
		from, to := median(values(p, m.Name)), median(values(c, m.Name))
		if from != 0 {
			moves = append(moves, move{m.Name, from, to})
		}
	}
	rel := func(mv move) float64 { return math.Abs(mv.to/mv.from - 1) }
	sort.SliceStable(moves, func(a, b int) bool { return rel(moves[a]) > rel(moves[b]) })
	if len(moves) > 5 {
		moves = moves[:5]
	}
	for _, mv := range moves {
		fmt.Fprintf(w, "%s layer %s: %.4g -> %.4g (%+.1f%%)\n", wl, mv.name, mv.from, mv.to, 100*(mv.to/mv.from-1))
	}
}
