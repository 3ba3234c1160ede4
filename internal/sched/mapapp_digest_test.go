package sched_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"incdes/internal/core"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// mapAppDigests pins the initial mapping IM, the paper's Heterogeneous
// Critical Path mapper: the SHA-256 of the state after MapApp, prefixed
// by the outcome ("ok", or the error text when the mapping fails).
// A change to MapApp that alters any node choice, placement, bus
// reservation or error shows up here.
var mapAppDigests = map[string]string{
	"multi/1/ah/future0":     "3788c1e3757c959ffdf659f944d87fe6ecc8acffe9a290ce607fb204d0b1da01",
	"multi/1/ah/future1":     "d7c1243b7d94cfa72eff22286971bb2cd549db77f16eb20aab1593d6b56cac0c",
	"multi/1/current":        "eb41b8399dae0cf8bcbfac42a43688e1b7e76719b36ae21c54a37d2069727c8f",
	"multi/1/current+hints":  "889c87e6a0b64932001224e3ebb5f84f9630ba5c62ba5c89e21fc230a90d6997",
	"multi/1/mh/future0":     "67f2ec45a114ab6809bcc587bbb35ca2fdc52e5b0d0435cdf5af26b87d1e6bd6",
	"multi/1/mh/future1":     "1ccef3886344a9d053474da3a5249e21109d7c29055311e706fa2d12dab9a3e2",
	"multi/2/ah/future0":     "fd2eab32395be96f379e06ebb5c61c6d7053dae7fe0ebd579e7e1acc44823193",
	"multi/2/ah/future1":     "d74df09577eb50f7f9fc6bae5e9ee7d0d13d5896e513ff7a692e132529eb73ed",
	"multi/2/current":        "9b49dc015c3a3af7e8b9f14392729074cd4a45bc25eddd84339d6a142911bf31",
	"multi/2/current+hints":  "3f1e9347e422660150aed7c430a7957705926f7661fb9a98f8e7d99afce68e7e",
	"multi/2/mh/future0":     "d62c190360762453a484101fa286e3a626d26fe74c784b030e5eccd3fcee8d57",
	"multi/2/mh/future1":     "0b0a9d458e18ac6bc868e147826a3a574537eb10ba26ad9a5903160313fcdcd6",
	"multi/3/ah/future0":     "5156d46cf5f6e27f7f87fc7f158de2e3b9c25d0073329944d17af7801dd90d5e",
	"multi/3/ah/future1":     "68a42c6e72ad28b6f59acef8d980e25c5e4d09766083106064f1757601b62bc6",
	"multi/3/current":        "3ce9680fd99fb44645c2e6adcec14f16dde4a4ab33130ca23d4f1ac564c934e5",
	"multi/3/current+hints":  "b0ea30001c478b1bb8ea17d6b33ac4de6ef2b31cc7904b7f4fac912e030699c4",
	"multi/3/mh/future0":     "c718ad05c11f52d03e868aaff6f0a404d57b5941c1659943095976fed3485ab8",
	"multi/3/mh/future1":     "2eb94763a62e1a9cfbe5d449ff5e5460fa93a1468cfd342f4d46af1d5d697932",
	"single/1/ah/future0":    "22f73ae99735c51b1ce368e4cbae741a78855932e583eae0bd8835a6fefd79bc",
	"single/1/ah/future1":    "8646a2615a7423dfa0fe68f6720d1f5d38ab886b16b095c0d4ddf027aa6d37d5",
	"single/1/current":       "08ab2558339f66d84c3aa15852117cbfc305771ce0fc93a2ba917ba5690be4f2",
	"single/1/current+hints": "b61c163060e5c881213acd206aefead46250610dae0aa351487216f50bd778d2",
	"single/1/mh/future0":    "22b1d744630d302aa5a65251d89564b14ca799a120a5954014e1d5a9382a938f",
	"single/1/mh/future1":    "2d7e45b558893d0a771f92576f66152ba8feb6f4e36b5fda1710897928425fb7",
	"single/2/ah/future0":    "7295837572903d08249b593a3865cde0fae7e556ed25c614be2759e4ae95ab06",
	"single/2/ah/future1":    "8603c1328d58dd8d81a15c91d2c7e2ab4ab8e24abbd96f63bf6dd0ee4025f159",
	"single/2/current":       "8fbcd5ce859ead88cf8174e80394b0bc3892600f712a606d20490f2214ec39dd",
	"single/2/current+hints": "72444003e1e31faf46bf3d7c2cbc339d14fb0d6f5041e8aac3b19bdc37b24422",
	"single/2/mh/future0":    "f20a7cc52ddf5684fd171f182028c996234609b0411bb24249a44045313afdd7",
	"single/2/mh/future1":    "49851fc228740402de1c9339f0a8c3092c75a1a9bcfa42e6d2ffc15f608619a8",
	"single/3/ah/future0":    "1fdcd9098a48f89a52a1526d4a25e1dfa9150c0dd23d3069bda4e36221e7eb90",
	"single/3/ah/future1":    "26645ebb244e70d31c1d8302683cbec29f4f4e8c06bd954701b7b1e944b644cc",
	"single/3/current":       "3d7db572621b4ae0a38b3494d770184dd4395ffca1f651769e7274c609d8f472",
	"single/3/current+hints": "a176d0880ad07b2befc396d347cd5e30357737cebd0ca648bf33347a768be2dc",
	"single/3/mh/future0":    "8e83807a5aff78f9aa4a0879118da38da62e4ed01880ac0f738a2793867c9059",
	"single/3/mh/future1":    "4bb0e90c3433f35c66d511ce28dc98b771be875ed79a85be472519071c5608c7",
}

// mapAppDigest runs MapApp on a clone of st and digests the outcome. The
// state after a failure must be the state before it, so a failure
// digests the untouched fingerprint together with the error text.
func mapAppDigest(st *sched.State, app *model.Application, hints sched.Hints) (digest string, failed bool) {
	c := st.Clone()
	_, err := c.MapApp(app, hints)
	outcome := "ok"
	if err != nil {
		outcome = "error: " + err.Error()
	}
	sum := sha256.Sum256(append([]byte(outcome+"\n"), c.Fingerprint()...))
	return hex.EncodeToString(sum[:]), err != nil
}

// spreadHints returns start-offset hints for every process and message
// of app, spread deterministically over each graph's period, so the
// pinned cases also exercise the hint fallbacks of MapApp.
func spreadHints(app *model.Application) sched.Hints {
	h := sched.Hints{}
	for _, g := range app.Graphs {
		for _, p := range g.Procs {
			h = h.SetProcStart(p.ID, tm.Time(int64(p.ID)*37)%g.Period)
		}
		for _, m := range g.Msgs {
			h = h.SetMsgStart(m.ID, tm.Time(int64(m.ID)*53)%g.Period)
		}
	}
	return h
}

func quickConfig() gen.Config {
	cfg := gen.Default()
	cfg.Nodes = 5
	cfg.GraphMinProcs = 5
	cfg.GraphMaxProcs = 12
	return cfg
}

func TestMapAppDigests(t *testing.T) {
	multi := quickConfig()
	multi.Clusters = 3
	multi.GatewaysPerLink = 1
	multi.InterClusterFrac = 0.2
	configs := []struct {
		name string
		cfg  gen.Config
	}{
		{"single", gen.Default()},
		{"multi", multi},
	}

	got := map[string]string{}
	failures := 0
	for _, c := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			tc, err := gen.MakeTestCase(c.cfg, seed, 100, 30)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			key := fmt.Sprintf("%s/%d/current", c.name, seed)
			got[key], _ = mapAppDigest(tc.Base, tc.Current, sched.Hints{})
			got[key+"+hints"], _ = mapAppDigest(tc.Base, tc.Current, spreadHints(tc.Current))

			// Sampled future applications on the residual system left by
			// AH and by MH: most do not fit, so both outcomes are pinned.
			p, err := core.NewProblem(tc.Sys, tc.Base, tc.Current, tc.Profile, metrics.DefaultWeights(tc.Profile))
			if err != nil {
				t.Fatal(err)
			}
			futGen := gen.New(c.cfg, seed+77)
			futGen.StartIDsAt(1 << 20)
			for _, strat := range []struct {
				name string
				s    core.Strategy
			}{
				{"ah", core.AH},
				{"mh", core.MHWith(core.MHOptions{MaxIterations: 4})},
			} {
				sol, err := core.Solve(context.Background(), p, core.Options{Strategy: strat.s, Parallelism: 1})
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", c.name, seed, strat.name, err)
				}
				for s := 0; s < 2; s++ {
					fut := futGen.FutureApp(fmt.Sprintf("future%d", s), tc.Profile, 10)
					key := fmt.Sprintf("%s/%d/%s/future%d", c.name, seed, strat.name, s)
					d, failed := mapAppDigest(sol.State, fut, sched.Hints{})
					got[key] = d
					if failed {
						failures++
					}
				}
			}
		}
	}
	if failures == 0 || failures == 24 {
		t.Errorf("%d of 24 future applications failed to map; the pinned cases must cover both outcomes", failures)
	}
	for key, d := range got {
		if want, ok := mapAppDigests[key]; !ok || d != want {
			t.Errorf("%q: MapApp digest %s, want %s", key, d, want)
		}
	}
	if len(mapAppDigests) != len(got) {
		t.Errorf("%d pinned digests, %d computed", len(mapAppDigests), len(got))
	}
}

// TestMapAppPlacesWhatScheduleAppPlaces pins that the initial mapping is
// an ordinary placement of the mapping it returns: on TestMapAppDigests'
// generated configurations, one bus and three clusters, with 20 and 80
// current processes, with and without spreadHints, the state after a
// successful MapApp has the fingerprint of ScheduleApp with the returned
// mapping and the same hints.
func TestMapAppPlacesWhatScheduleAppPlaces(t *testing.T) {
	multi := quickConfig()
	multi.Clusters = 3
	multi.GatewaysPerLink = 1
	multi.InterClusterFrac = 0.2
	feasible, cases := 0, 0
	for _, cfg := range []gen.Config{gen.Default(), multi} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, current := range []int{20, 80} {
				tc, err := gen.MakeTestCase(cfg, seed, 100, current)
				if err != nil {
					t.Fatalf("%d buses, seed %d, %d current: %v", cfg.Clusters, seed, current, err)
				}
				for _, hints := range []sched.Hints{{}, spreadHints(tc.Current)} {
					cases++
					got := tc.Base.Clone()
					mapping, err := got.MapApp(tc.Current, hints)
					if err != nil {
						continue
					}
					feasible++
					want := tc.Base.Clone()
					if err := want.ScheduleApp(tc.Current, mapping, hints); err != nil {
						t.Errorf("%d buses, seed %d, %d current: ScheduleApp of MapApp's mapping: %v", cfg.Clusters, seed, current, err)
					} else if !bytes.Equal(got.Fingerprint(), want.Fingerprint()) {
						t.Errorf("%d buses, seed %d, %d current: MapApp placed other than ScheduleApp with its mapping", cfg.Clusters, seed, current)
					}
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatalf("none of %d cases mapped; the test proves nothing", cases)
	}
	t.Logf("%d of %d cases mapped", feasible, cases)
}
