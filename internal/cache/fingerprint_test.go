package cache

import (
	"testing"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// buildSystem constructs a small deterministic system; the knobs are the
// fields a mutation test wants to vary one at a time.
type sysParams struct {
	nodes     int
	procs     int
	wcet      tm.Time
	msgBytes  int
	period    tm.Time
	appName   string
	slotBytes int
}

func defaultSysParams() sysParams {
	return sysParams{nodes: 3, procs: 4, wcet: 3, msgBytes: 4, period: 60, appName: "app", slotBytes: 8}
}

func buildSystem(t testing.TB, p sysParams) *model.System {
	t.Helper()
	b := model.NewBuilder()
	for i := 0; i < p.nodes; i++ {
		b.Node("N" + string(rune('0'+i)))
	}
	b.UniformBus(p.slotBytes, 1, 2)
	g := b.App(p.appName).Graph(p.appName+"-g", p.period, p.period)
	var prev model.ProcID
	for i := 0; i < p.procs; i++ {
		pr := g.UniformProc(p.appName+"-p"+string(rune('0'+i)), p.wcet)
		if i > 0 {
			g.Msg(prev, pr, p.msgBytes)
		}
		prev = pr
	}
	sys, err := b.System()
	if err != nil {
		t.Fatalf("building system: %v", err)
	}
	return sys
}

// buildClusteredSystem is buildSystem with a fourth node and a second
// TDMA bus. Callers vary which nodes own slots on which bus, so the
// sensitivity test can probe that bus attachment, gateway placement and
// bus topology all reach the fingerprint.
func buildClusteredSystem(t testing.TB, bus0, bus1 []model.NodeID) *model.System {
	t.Helper()
	p := defaultSysParams()
	b := model.NewBuilder()
	for i := 0; i < p.nodes+1; i++ {
		b.Node("N" + string(rune('0'+i)))
	}
	caps := func(n int) []int {
		c := make([]int, n)
		for i := range c {
			c[i] = p.slotBytes
		}
		return c
	}
	b.Bus(bus0, caps(len(bus0)), 1, 2)
	b.AddBus(bus1, caps(len(bus1)), 1, 2)
	g := b.App(p.appName).Graph(p.appName+"-g", p.period, p.period)
	var prev model.ProcID
	for i := 0; i < p.procs; i++ {
		pr := g.UniformProc(p.appName+"-p"+string(rune('0'+i)), p.wcet)
		if i > 0 {
			g.Msg(prev, pr, p.msgBytes)
		}
		prev = pr
	}
	sys, err := b.System()
	if err != nil {
		t.Fatalf("building clustered system: %v", err)
	}
	return sys
}

func baseRequest(t testing.TB) Request {
	return Request{
		System:   buildSystem(t, defaultSysParams()),
		Strategy: Spec{Name: "sa", SAIters: 100, SARestarts: 2, SASeed: 7},
	}
}

// TestFingerprintDeterministic pins that a fingerprint is a pure
// function of the request: rebuilding the same inputs from scratch
// hashes identically.
func TestFingerprintDeterministic(t *testing.T) {
	a, b := Fingerprint(baseRequest(t)), Fingerprint(baseRequest(t))
	if a != b {
		t.Fatalf("identical requests hash differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint %q is not hex SHA-256", a)
	}
}

// TestSpecNormalization pins that strategy tuning a strategy cannot
// observe is normalized away, and the default name resolves to mh.
func TestSpecNormalization(t *testing.T) {
	base := baseRequest(t)
	fp := func(s Spec) string {
		r := base
		r.Strategy = s
		return Fingerprint(r)
	}
	if fp(Spec{}) != fp(Spec{Name: "mh"}) {
		t.Error(`Spec{} and Spec{Name: "mh"} hash differently`)
	}
	if fp(Spec{Name: "mh", SAIters: 500}) != fp(Spec{Name: "mh"}) {
		t.Error("mh observes SA tuning")
	}
	if fp(Spec{Name: "ah", SASeed: 9}) != fp(Spec{Name: "ah"}) {
		t.Error("ah observes SA tuning")
	}
	if fp(Spec{Name: "sa", SAIters: 100}) == fp(Spec{Name: "sa", SAIters: 200}) {
		t.Error("sa ignores SAIters")
	}
	if fp(Spec{Name: "portfolio", SASeed: 1}) == fp(Spec{Name: "portfolio", SASeed: 2}) {
		t.Error("portfolio ignores SASeed")
	}
	if fp(Spec{Name: "mh", SAChainOffset: 3}) != fp(Spec{Name: "mh"}) {
		t.Error("mh observes SAChainOffset")
	}
	if fp(Spec{Name: "sa", SAChainOffset: 1}) == fp(Spec{Name: "sa", SAChainOffset: 2}) {
		t.Error("sa ignores SAChainOffset")
	}
}

// TestFingerprintSensitivity mutates every result-relevant field one at
// a time and requires every mutation to move the hash — and all hashes
// to be pairwise distinct.
func TestFingerprintSensitivity(t *testing.T) {
	mutations := map[string]func(t *testing.T) Request{
		"app-name-param": func(t *testing.T) Request {
			r := baseRequest(t)
			r.App = "app"
			return r
		},
		"strategy-name": func(t *testing.T) Request {
			r := baseRequest(t)
			r.Strategy.Name = "mh"
			return r
		},
		"sa-iters": func(t *testing.T) Request {
			r := baseRequest(t)
			r.Strategy.SAIters = 101
			return r
		},
		"sa-restarts": func(t *testing.T) Request {
			r := baseRequest(t)
			r.Strategy.SARestarts = 3
			return r
		},
		"sa-seed": func(t *testing.T) Request {
			r := baseRequest(t)
			r.Strategy.SASeed = 8
			return r
		},
		"sa-chain-offset": func(t *testing.T) Request {
			r := baseRequest(t)
			r.Strategy.SAChainOffset = 2
			return r
		},
		"sys-extra-node": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.nodes = 4
			r.System = buildSystem(t, p)
			return r
		},
		"sys-extra-proc": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.procs = 5
			r.System = buildSystem(t, p)
			return r
		},
		"sys-wcet": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.wcet = 4
			r.System = buildSystem(t, p)
			return r
		},
		"sys-msg-bytes": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.msgBytes = 5
			r.System = buildSystem(t, p)
			return r
		},
		"sys-period": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.period = 120
			r.System = buildSystem(t, p)
			return r
		},
		"sys-app-name": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.appName = "other"
			r.System = buildSystem(t, p)
			return r
		},
		"sys-slot-bytes": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.slotBytes = 16
			r.System = buildSystem(t, p)
			return r
		},
		"sys-byte-time": func(t *testing.T) Request {
			r := baseRequest(t)
			r.System.Arch.Buses[0].ByteTime = 2
			return r
		},
		"sys-slot-order": func(t *testing.T) Request {
			r := baseRequest(t)
			so := r.System.Arch.Buses[0].SlotOrder
			so[0], so[1] = so[1], so[0]
			return r
		},
		// Multi-cluster topology: adding a second bus, moving the gateway,
		// re-attaching a node, and mirroring which bus carries which slot
		// table must all be distinct — slot ownership is what encodes bus
		// attachment and gateway placement, so each reshape moves the hash.
		"sys-second-bus": func(t *testing.T) Request {
			r := baseRequest(t)
			r.System = buildClusteredSystem(t,
				[]model.NodeID{0, 1, 2}, []model.NodeID{2, 3})
			return r
		},
		"sys-gateway-moved": func(t *testing.T) Request {
			r := baseRequest(t)
			r.System = buildClusteredSystem(t,
				[]model.NodeID{0, 1, 2}, []model.NodeID{1, 3})
			return r
		},
		"sys-bus-attachment": func(t *testing.T) Request {
			r := baseRequest(t)
			r.System = buildClusteredSystem(t,
				[]model.NodeID{0, 2}, []model.NodeID{1, 2, 3})
			return r
		},
		"sys-bus-swapped": func(t *testing.T) Request {
			r := baseRequest(t)
			r.System = buildClusteredSystem(t,
				[]model.NodeID{2, 3}, []model.NodeID{0, 1, 2})
			return r
		},
	}

	seen := map[string]string{Fingerprint(baseRequest(t)): "base"}
	for name, mutate := range mutations {
		fp := Fingerprint(mutate(t))
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
			continue
		}
		seen[fp] = name
	}
}

// FuzzFingerprint fuzzes the canonicalization: for any generated system
// the fingerprint must be stable across rebuilds and sensitive to a
// WCET bump.
func FuzzFingerprint(f *testing.F) {
	f.Add(2, 3, 3, 4, 60, "app")
	f.Add(1, 1, 1, 1, 30, "x")
	f.Add(4, 6, 7, 9, 120, "fuzz-app")
	f.Fuzz(func(t *testing.T, nodes, procs, wcet, msgBytes, period int, name string) {
		p := sysParams{
			nodes:     1 + abs(nodes)%4,
			procs:     1 + abs(procs)%6,
			wcet:      tm.Time(1 + abs(wcet)%50),
			msgBytes:  1 + abs(msgBytes)%32,
			period:    tm.Time(30 * (1 + abs(period)%4)),
			appName:   name,
			slotBytes: 8,
		}
		req := func(p sysParams) Request {
			b := model.NewBuilder()
			for i := 0; i < p.nodes; i++ {
				b.Node("N" + string(rune('0'+i)))
			}
			b.UniformBus(p.slotBytes, 1, 2)
			g := b.App(p.appName).Graph("g", p.period, p.period)
			var prev model.ProcID
			for i := 0; i < p.procs; i++ {
				pr := g.UniformProc("p"+string(rune('0'+i)), p.wcet)
				if i > 0 {
					g.Msg(prev, pr, p.msgBytes)
				}
				prev = pr
			}
			sys, err := b.System()
			if err != nil {
				t.Skip("unbuildable parameter combination")
			}
			return Request{System: sys}
		}
		a := Fingerprint(req(p))
		if b := Fingerprint(req(p)); a != b {
			t.Fatalf("rebuild changed fingerprint: %s vs %s", a, b)
		}
		bumped := p
		bumped.wcet++
		if b := Fingerprint(req(bumped)); a == b {
			t.Fatal("WCET bump did not change fingerprint")
		}
	})
}

func abs(v int) int {
	if v < 0 {
		// abs(MinInt) stays negative; clamp instead of overflowing.
		if v == -v {
			return 0
		}
		return -v
	}
	return v
}
