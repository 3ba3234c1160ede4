package metrics_test

import (
	"math"
	"math/rand"
	"testing"

	"incdes/internal/future"
	"incdes/internal/gen"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/pack"
	"incdes/internal/sched"
	"incdes/internal/slack"
	"incdes/internal/tm"
)

func incMapping(rng *rand.Rand, app *model.Application) model.Mapping {
	m := model.Mapping{}
	for _, g := range app.Graphs {
		for _, p := range g.Procs {
			nodes := p.AllowedNodes()
			m[p.ID] = nodes[rng.Intn(len(nodes))]
		}
	}
	return m
}

// TestEvaluateTxnMatchesEvaluate is the differential test the whole
// incremental layer hangs on: for random candidate placements applied
// under a transaction, EvaluateTxn must equal Evaluate on the same state
// bit for bit — including the floating-point packing fractions,
// PeriodicFill and the objective, which only match if the incremental
// path replays the exact same operation sequence.
//
// At the default future profile both packings are 0 on every candidate,
// so the "busy" cases raise the future application's processor and bus
// demand until the packings leave items over, on one bus and on three
// clusters; each of them must see C1P > 0 and C1m > 0 together.
//
// EvaluateTxn skips a packing when the all-fit certificate holds, so each
// evaluation is also classified by running the certificate over the C1P
// and C1m bins built from package slack: the default case must see it
// hold, and each busy case see it fail, at least once per criterion.
//
// Each case also runs a walk of single moves re-placed on one open
// transaction (the "replace" subtest, see replaceWalk), which is what an
// MH or SA candidate is.
func TestEvaluateTxnMatchesEvaluate(t *testing.T) {
	busy := func(cfg gen.Config) gen.Config {
		cfg.FutureUtil, cfg.FutureBusFrac = 0.9, 1.5
		return cfg
	}
	for _, c := range []struct {
		name              string
		cfg               gen.Config
		existing, current int
		wantPacked        bool
	}{
		// A current application smaller than the node count, so candidate
		// placements routinely leave timelines clean and the cached-vector
		// path actually runs (bigger apps dirty every node and degenerate
		// to the full-recompute classification).
		{"default", gen.Default(), 80, 8, false},
		{"busy", busy(gen.Default()), 80, 8, true},
		{"busy-multicluster", busy(gen.Multicluster(3, 3, 0.25)), 40, 20, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			packed := 0
			var held, failed [2]int // per criterion: C1P, C1m
			for seed := int64(0); seed < 4; seed++ {
				tc, err := gen.MakeTestCase(c.cfg, 900+seed*17, c.existing, c.current)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				w := metrics.DefaultWeights(tc.Profile)
				base := tc.Base
				bl := metrics.NewBaseline(base, tc.Profile, w)
				ev := bl.Evaluator()

				rng := rand.New(rand.NewSource(seed))
				matched, fulls := 0, 0
				for iter := 0; iter < 40; iter++ {
					txn := base.Begin()
					if err := txn.Apply(tc.Current, incMapping(rng, tc.Current), sched.Hints{}); err != nil {
						txn.Rollback()
						continue
					}
					got, full := ev.EvaluateTxn(base, txn)
					want := metrics.Evaluate(base, tc.Profile, w)
					for i, ok := range certified(base, tc.Profile) {
						if ok {
							held[i]++
						} else {
							failed[i]++
						}
					}
					txn.Rollback()
					if got != want {
						t.Fatalf("seed %d iter %d (full=%v): EvaluateTxn = %+v, Evaluate = %+v", seed, iter, full, got, want)
					}
					matched++
					if full {
						fulls++
					}
					if got.C1P > 0 && got.C1m > 0 {
						packed++
					}
				}
				if matched == 0 {
					t.Fatalf("seed %d: no feasible candidate placements; differential never ran", seed)
				}
				if fulls == matched {
					t.Errorf("seed %d: every evaluation fell back to a full recompute; the incremental path never ran", seed)
				}
			}
			if c.wantPacked && packed == 0 {
				t.Errorf("no evaluation had C1P > 0 and C1m > 0; the packings were never compared on leftover items")
			}
			for i, term := range []string{"C1P", "C1m"} {
				if c.wantPacked && failed[i] == 0 {
					t.Errorf("the %s certificate held on all %d evaluations; the packing path never ran", term, held[i])
				}
				if !c.wantPacked && held[i] == 0 {
					t.Errorf("the %s certificate failed on all %d evaluations; the certified path never ran", term, failed[i])
				}
			}
			t.Run("replace", func(t *testing.T) {
				replaceWalk(t, c.cfg, c.existing, c.current, c.wantPacked)
			})
		})
	}
}

// replaceWalk drives one evaluator over one open transaction as an
// evaluation worker does (core.Engine.Evaluate): 300 single moves,
// each re-placed with Txn.Replace from the first job that either the
// previous move or this one reaches while the incumbent stays the same,
// and from job 0 after it changes. The walk holds runs of moves over
// one incumbent; accepted moves (one feasible move in four); switches
// to another design with a random mapping (one step in 40); and
// infeasible moves (one in eight maps a process to a node that does not
// exist), whose failed Replace leaves the jobs before that process's
// first job placed. Every feasible re-placement is scored and compared
// bit for bit with Evaluate on the same state, and every certificate
// term the evaluator holds for the scores it read must count the slack
// those scores hold now.
//
// The walk must also reuse: some dirty node's kept score must be read
// again and some hop left applied. Where the case packs, the
// evaluations must see C1P > 0 and C1m > 0, so the bins gathered from
// kept scores and the patched histogram are compared on leftover items.
func replaceWalk(t *testing.T, cfg gen.Config, existing, current int, wantPacked bool) {
	tc, err := gen.MakeTestCase(cfg, 900, existing, current)
	if err != nil {
		t.Fatal(err)
	}
	w := metrics.DefaultWeights(tc.Profile)
	ev := metrics.NewBaseline(tc.Base, tc.Profile, w).Evaluator()
	st := tc.Base.Clone()
	txn := st.Begin()
	ord, err := st.Order(tc.Current)
	if err != nil {
		t.Fatal(err)
	}
	var procs []model.ProcID
	var msgs []model.MsgID
	period := map[model.ProcID]tm.Time{}
	msgPeriod := map[model.MsgID]tm.Time{}
	for _, g := range tc.Current.Graphs {
		for _, p := range g.Procs {
			procs = append(procs, p.ID)
			period[p.ID] = g.Period
		}
		for _, m := range g.Msgs {
			msgs = append(msgs, m.ID)
			msgPeriod[m.ID] = g.Period
		}
	}
	draw := func(rng *rand.Rand, d *sched.Design) sched.Move {
		p := procs[rng.Intn(len(procs))]
		switch k := rng.Intn(8); {
		case k == 0:
			return sched.Move{Kind: sched.MoveProc, Proc: p, Node: 1 << 20}
		case k < 4:
			nodes := ord.AllowedNodes(p)
			return sched.Move{Kind: sched.MoveProc, Proc: p, Node: nodes[rng.Intn(len(nodes))]}
		case k < 6 || len(msgs) == 0:
			return sched.Move{Kind: sched.MoveProc, Proc: p, Node: d.Node(p), Start: tm.Time(rng.Int63n(int64(period[p])))}
		default:
			m := msgs[rng.Intn(len(msgs))]
			return sched.Move{Kind: sched.MoveMsg, Msg: m, Start: tm.Time(rng.Int63n(int64(msgPeriod[m])))}
		}
	}

	rng := rand.New(rand.NewSource(1))
	var d, held *sched.Design // the incumbent, and the one the last Replace re-placed
	var heldMv sched.Move
	evals, infeasible, accepted, switches, packed := 0, 0, 0, 0, 0
	for step := 0; step < 300; step++ {
		var mv sched.Move
		if d == nil || rng.Intn(40) == 0 {
			d = ord.Design(incMapping(rng, tc.Current), sched.Hints{})
			switches++
		} else {
			mv = draw(rng, d)
		}
		from := 0
		if held == d {
			from = min(ord.MoveJob(heldMv), ord.MoveJob(mv))
		}
		err := txn.Replace(from, d, mv)
		held, heldMv = d, mv
		if err != nil {
			infeasible++
			continue
		}
		got, full := ev.EvaluateTxn(st, txn)
		want := metrics.Evaluate(st, tc.Profile, w)
		if !sameBits(got, want) {
			t.Fatalf("step %d, move %+v (full=%v): EvaluateTxn = %+v, Evaluate = %+v", step, mv, full, got, want)
		}
		if stale := metrics.StaleTerms(ev); stale > 0 {
			t.Fatalf("step %d, move %+v: %d certificate terms no longer count their node's slack", step, mv, stale)
		}
		evals++
		if got.C1P > 0 && got.C1m > 0 {
			packed++
		}
		if mv != (sched.Move{}) && rng.Intn(4) == 0 {
			d = d.With(mv)
			accepted++
		}
	}
	nodes, hops := metrics.Reuse(ev)
	t.Logf("%d evaluations, %d infeasible, %d accepted, %d switches; %d dirty nodes and %d hops reused", evals, infeasible, accepted, switches, nodes, hops)
	if evals == 0 || infeasible == 0 || accepted == 0 || switches < 2 {
		t.Errorf("the walk missed a kind of step: %d evaluations, %d infeasible, %d accepted, %d switches", evals, infeasible, accepted, switches)
	}
	if nodes == 0 || hops == 0 {
		t.Errorf("nothing reused: %d dirty nodes, %d hops", nodes, hops)
	}
	if wantPacked && packed == 0 {
		t.Errorf("no evaluation had C1P > 0 and C1m > 0; the packings were never compared on leftover items")
	}
}

// sameBits reports whether two reports hold the same bits, every float
// compared by its bits: a -0 where +0 belongs differs.
func sameBits(a, b metrics.Report) bool {
	for _, f := range [][2]float64{{a.C1P, b.C1P}, {a.C1m, b.C1m}, {a.Objective, b.Objective}, {a.PeriodicFill, b.PeriodicFill}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return a == b
}

// certified reports whether the all-fit certificate holds over st's C1P
// bins (the slack interval lengths, as one group) and over its C1m bins
// (the free bytes of every slot occurrence), built as Evaluate builds
// them.
func certified(st *sched.State, prof *future.Profile) [2]bool {
	h := st.Horizon()
	bins := slack.Lengths(slack.AllIntervals(slack.Processor(st)))
	runs := pack.NewRuns(prof.LargestAppWCETs(h))
	terms := make([]int64, len(runs))
	for r := range terms {
		terms[r] = -1 // not counted
	}
	var caps pack.Caps
	caps.Reset(slack.BusFreeBytes(st))
	return [2]bool{
		runs.CertifyGroups([][]int64{bins}, [][]int64{terms}),
		pack.NewRuns(prof.LargestAppMsgBytes(h)).CertifyCaps(&caps),
	}
}

// TestEvaluateTxnFullFallback forces the every-node-dirty case: the
// evaluator must detect there is nothing to reuse, fall back to the full
// recompute, and still report identical numbers.
func TestEvaluateTxnFullFallback(t *testing.T) {
	cfg := gen.Default()
	cfg.Nodes = 2 // a 2-node system: almost any placement touches every timeline
	tc, err := gen.MakeTestCase(cfg, 77, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	w := metrics.DefaultWeights(tc.Profile)
	ev := metrics.NewBaseline(tc.Base, tc.Profile, w).Evaluator()

	rng := rand.New(rand.NewSource(7))
	sawFull := false
	for iter := 0; iter < 40 && !sawFull; iter++ {
		txn := tc.Base.Begin()
		if err := txn.Apply(tc.Current, incMapping(rng, tc.Current), sched.Hints{}); err != nil {
			txn.Rollback()
			continue
		}
		got, full := ev.EvaluateTxn(tc.Base, txn)
		want := metrics.Evaluate(tc.Base, tc.Profile, w)
		txn.Rollback()
		if got != want {
			t.Fatalf("iter %d (full=%v): EvaluateTxn = %+v, Evaluate = %+v", iter, full, got, want)
		}
		sawFull = sawFull || full
	}
	if !sawFull {
		t.Skip("no placement dirtied every node; fallback not exercised on this workload")
	}
}

// TestBaselineSurvivesRollbacks pins that the baseline caches really are
// immutable: after many Apply/EvaluateTxn/Rollback cycles the same
// evaluator still reproduces Evaluate's numbers for the untouched base.
func TestBaselineSurvivesRollbacks(t *testing.T) {
	tc, err := gen.MakeTestCase(gen.Default(), 321, 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	w := metrics.DefaultWeights(tc.Profile)
	ev := metrics.NewBaseline(tc.Base, tc.Profile, w).Evaluator()
	want := metrics.Evaluate(tc.Base, tc.Profile, w)

	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		txn := tc.Base.Begin()
		if err := txn.Apply(tc.Current, incMapping(rng, tc.Current), sched.Hints{}); err == nil {
			_, _ = ev.EvaluateTxn(tc.Base, txn)
		}
		txn.Rollback()
	}
	if got := metrics.Evaluate(tc.Base, tc.Profile, w); got != want {
		t.Fatalf("base metrics drifted across evaluation cycles: %+v vs %+v", got, want)
	}
}
