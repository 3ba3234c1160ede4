// Benchmarks of the strategies and of the substrates they run on, on
// full-scale problems: the paper's 10-node platform, 400 existing
// processes and its sweep of current-application sizes. The
// per-strategy benchmarks (BenchmarkStrategy*, BenchmarkSolve*) time
// whole solves; the micro-benchmarks (BenchmarkScheduleApp,
// BenchmarkEvaluate, BenchmarkStateClone) time the substrate operations
// behind every examined design alternative. Run them with:
//
//	go test -run '^$' -bench=. -benchmem
//
// They regenerate no figure: cmd/incbench regenerates the paper's
// figures.
package incdes_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/obs"
	"incdes/internal/sched"
)

// benchSizes is the paper's sweep of current-application sizes.
var benchSizes = []int{40, 80, 160, 240, 320}

// benchExisting matches the paper: 400 processes of frozen applications.
const benchExisting = 400

var (
	problemCache   = map[int]*core.Problem{}
	problemCacheMu sync.Mutex
)

// benchProblem returns (building once) a full-scale problem instance for
// the given current-application size.
func benchProblem(b *testing.B, size int) *core.Problem {
	b.Helper()
	problemCacheMu.Lock()
	defer problemCacheMu.Unlock()
	if p, ok := problemCache[size]; ok {
		return p
	}
	tc, err := gen.MakeTestCase(gen.Default(), 42+int64(size), benchExisting, size)
	if err != nil {
		b.Fatalf("generating test case: %v", err)
	}
	p, err := core.NewProblem(tc.Sys, tc.Base, tc.Current, tc.Profile,
		metrics.DefaultWeights(tc.Profile))
	if err != nil {
		b.Fatal(err)
	}
	problemCache[size] = p
	return p
}

// BenchmarkStrategyAH measures one AH solve per sweep size.
func BenchmarkStrategyAH(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("procs=%d", size), func(b *testing.B) {
			p := benchProblem(b, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), p, core.Options{Strategy: core.AH, Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStrategyMH measures one MH solve per sweep size.
func BenchmarkStrategyMH(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("procs=%d", size), func(b *testing.B) {
			p := benchProblem(b, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), p, core.Options{Strategy: core.MH, Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStrategySA measures one SA solve per sweep size with the
// full default annealing budget (the near-optimal configuration). This
// is by far the slowest benchmark.
func BenchmarkStrategySA(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("procs=%d", size), func(b *testing.B) {
			p := benchProblem(b, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), p, core.Options{Strategy: core.SAWith(core.SAOptions{Seed: 1}), Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveMHParallel measures the parallel engine's MH speedup on
// the 160-process sweep point: the same strategy at 1, 2 and 4
// evaluation workers. The solution is byte-identical at every setting
// (the determinism tests pin that); only ns/op should fall with workers —
// on a multi-core machine. Compare sub-benchmarks against parallel=1.
func BenchmarkSolveMHParallel(b *testing.B) {
	p := benchProblem(b, 160)
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			opts := core.Options{Strategy: core.MH, Parallelism: par}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveMH is one MH solve on the 160-process sweep point with
// no observer attached. It doubles as the plain-Solve baseline for
// BenchmarkSolveMHObserved — the gap to that is the full cost of the
// observability layer, which must stay in the noise (the
// disabled-observer hot path is additionally pinned to zero allocations
// by a test in internal/core).
func BenchmarkSolveMH(b *testing.B) {
	p := benchProblem(b, 160)
	opts := core.Options{Strategy: core.MH, Parallelism: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSA is the SA analogue of BenchmarkSolveMH: one
// reduced-budget annealing solve per op. SA examines far more candidates
// per solve than MH, so the per-candidate evaluation cost dominates.
func BenchmarkSolveSA(b *testing.B) {
	p := benchProblem(b, 160)
	opts := core.Options{Strategy: core.SAWith(core.SAOptions{Seed: 1, Iterations: 1500}), Parallelism: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveMHObserved is the same solve with the full observability
// layer on: a stats registry collecting every counter/timer/gauge and a
// collector retaining every trace event, as a served job's does.
func BenchmarkSolveMHObserved(b *testing.B) {
	p := benchProblem(b, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.Options{
			Strategy:    core.MH,
			Parallelism: 1,
			Observer: &obs.Observer{
				Stats:  obs.NewRegistry(),
				Tracer: &obs.Collector{},
			},
		}
		if _, err := core.Solve(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSAParallel measures the parallel engine's SA speedup on
// the 160-process sweep point: 4 restart chains at 1, 2 and 4 workers.
// Chain iterations are reduced so a full -bench=. run stays bounded; the
// chains are embarrassingly parallel, so the speedup is near-linear on a
// multi-core machine.
func BenchmarkSolveSAParallel(b *testing.B) {
	p := benchProblem(b, 160)
	strat := core.SAWith(core.SAOptions{Seed: 1, Iterations: 1500, Restarts: 4})
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			opts := core.Options{Strategy: strat, Parallelism: par}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleApp measures the substrate cost every strategy pays
// per examined design alternative: clone the frozen base and statically
// schedule the current application onto it.
func BenchmarkScheduleApp(b *testing.B) {
	for _, size := range []int{40, 160, 320} {
		b.Run(fmt.Sprintf("procs=%d", size), func(b *testing.B) {
			p := benchProblem(b, size)
			sol, err := core.Solve(context.Background(), p, core.Options{Strategy: core.AH, Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := p.Base.Clone()
				if err := st.ScheduleApp(p.Current, sol.Mapping, sched.Hints{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluate measures one metric evaluation (criteria C1 and C2)
// on a full design.
func BenchmarkEvaluate(b *testing.B) {
	p := benchProblem(b, 160)
	sol, err := core.Solve(context.Background(), p, core.Options{Strategy: core.AH, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Evaluate(sol.State, p.Profile, p.Weights)
	}
}

// BenchmarkStateClone measures the copy cost of a full-scale schedule
// state, the unit of work behind every what-if evaluation.
func BenchmarkStateClone(b *testing.B) {
	p := benchProblem(b, 320)
	sol, err := core.Solve(context.Background(), p, core.Options{Strategy: core.AH, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sol.State.Clone()
	}
}
