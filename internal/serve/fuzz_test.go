package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"testing"
	"time"

	"incdes/internal/core"
	"incdes/internal/export"
	"incdes/internal/model"
	"incdes/internal/tm"
)

// FuzzSolveQuery drives arbitrary POST /v1/solve query strings through
// the request path up to planning: parseSolveParams, Resolve, the cache
// spec and core.Plan. None of them may panic, every accepted query's
// params re-encode through Query to themselves, and an accepted request
// plans at most maxSARestarts+2 units (a portfolio's AH and MH lanes
// plus its SA chains).
func FuzzSolveQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"strategy=mh",
		"strategy=sa&sa-iters=200&sa-restarts=3&seed=7",
		"strategy=portfolio&sa-restarts=64",
		"strategy=sa&sa-restarts=65",
		"strategy=sa&sa-restarts=1125899906842624",
		"strategy=sa&sa-restarts=-3&sa-chain-offset=9223372036854775807",
		"strategy=ah&parallel=4&timeout=2s&detach=1&cache=off",
		"strategy=nope&cache=maybe",
		"timeout=-1s&seed=x&sa-iters=%zz",
		"app=a%26b%3Dc&timeout=1.5us&detach=true&cache=0",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, query string) {
		params, err := parseSolveParams(&http.Request{URL: &url.URL{RawQuery: query}})
		if err != nil {
			return
		}
		back, err := parseSolveParams(&http.Request{URL: &url.URL{RawQuery: params.Query()}})
		if err != nil || back != params {
			t.Fatalf("query %q: params %+v re-encode as %q, which parses to %+v (err %v)", query, params, params.Query(), back, err)
		}
		strat, err := params.Resolve()
		if err != nil {
			return
		}
		if spec := params.cacheSpec(); spec.SARestarts != params.SARestarts {
			t.Fatalf("cache spec restarts %d, params %d", spec.SARestarts, params.SARestarts)
		}
		if n := len(core.Plan(strat).Units); n < 1 || n > maxSARestarts+2 {
			t.Fatalf("query %q plans %d units, want 1..%d", query, n, maxSARestarts+2)
		}
	})
}

// FuzzSolveAH drives arbitrary system documents through what a solve
// request runs, under a time and allocation budget: model.ReadSystem,
// BuildProblem, an AH solve and export.Build. Every design it exports
// must pass the schedule oracle. An input that takes more than 2 s or
// allocates more than 256 MiB fails, also when it is rejected: that is
// a request able to exhaust the daemon. The time budget is a watchdog
// that panics, because an input that never returns would otherwise
// outlast the fuzzing run unreported; the crash records the input.
func FuzzSolveAH(f *testing.F) {
	for _, sys := range []*model.System{oneBusSeed(), twoClusterSeed(f)} {
		var buf bytes.Buffer
		if err := sys.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	const timeBudget, allocBudget = 2 * time.Second, 256 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		watchdog := time.AfterFunc(timeBudget, func() {
			panic(fmt.Sprintf("input still running after the %v budget", timeBudget))
		})
		defer watchdog.Stop()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		defer func() {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBudget {
				t.Errorf("input allocated %d MiB, over the %d MiB budget", alloc>>20, allocBudget>>20)
			}
		}()
		sys, err := model.ReadSystem(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := BuildProblem(sys, "")
		if err != nil {
			return
		}
		sol, err := core.Solve(context.Background(), p, core.Options{Strategy: core.AH, Parallelism: 1})
		if errors.Is(err, core.ErrUnschedulable) {
			return
		}
		if err != nil {
			t.Fatalf("AH solve: %v", err)
		}
		design, err := export.Build(sol.State)
		if err != nil {
			t.Fatalf("exporting the AH design: %v", err)
		}
		if errs := export.Check(design, sys, sys.Apps...); len(errs) != 0 {
			t.Fatalf("the AH design fails the schedule oracle: %v", errs[0])
		}
	})
}

// oneBusSeed is a frozen one-process application and a current one that
// sends a message between the two nodes of one bus.
func oneBusSeed() *model.System {
	b := model.NewBuilder()
	n0, n1 := b.Node("N0"), b.Node("N1")
	b.Bus([]model.NodeID{n0, n1}, []int{8, 8}, 1, 2)
	b.App("base").Graph("B", 100, 100).UniformProc("b", 20)
	g := b.App("current").Graph("G", 100, 100)
	src := g.Proc("src", map[model.NodeID]tm.Time{n0: 10})
	dst := g.Proc("dst", map[model.NodeID]tm.Time{n1: 10})
	g.Msg(src, dst, 4)
	return b.MustSystem()
}

// twoClusterSeed is one application on a two-cluster chain whose message
// crosses the gateway: from node 0 of the first cluster to node 3 of the
// second.
func twoClusterSeed(f *testing.F) *model.System {
	app := model.NewBuilder().App("current")
	g := app.Graph("G", 200, 200)
	src := g.Proc("src", map[model.NodeID]tm.Time{0: 10})
	dst := g.Proc("dst", map[model.NodeID]tm.Time{3: 10})
	g.Msg(src, dst, 4)
	sys := &model.System{
		Arch: model.ClusterChain([]int{2, 2}, 1, 8, 1, 2),
		Apps: []*model.Application{app.Application()},
	}
	if err := sys.Validate(); err != nil {
		f.Fatal(err)
	}
	return sys
}
