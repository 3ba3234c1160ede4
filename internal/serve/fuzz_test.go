package serve

import (
	"net/http"
	"net/url"
	"testing"

	"incdes/internal/core"
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
