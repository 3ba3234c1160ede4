package cache

import (
	"bytes"
	"context"
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
// bus topology all reach the request identity.
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

// body is the system as System.WriteJSON writes it: the bytes a client
// posts.
func body(t testing.TB, sys *model.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		t.Fatalf("writing system: %v", err)
	}
	return buf.Bytes()
}

func baseRequest(t testing.TB) Request {
	return Request{
		Body:     body(t, buildSystem(t, defaultSysParams())),
		Strategy: Spec{Name: "sa", SAIters: 100, SARestarts: 2, SASeed: 7},
	}
}

// shares reports whether b joins the flight that a led and kept: whether
// a's result answers b.
func shares(t testing.TB, a, b Request) bool {
	t.Helper()
	tb := NewTable(1)
	keep(t, tb, a, "a")
	_, ok := lookup(tb, b)
	return ok
}

// TestFingerprintDeterministic pins that a request's identity is a pure
// function of the request: rebuilding the same inputs from scratch joins
// the first build's kept flight. The flight keeps the posted bytes
// themselves, not a copy.
func TestFingerprintDeterministic(t *testing.T) {
	a := baseRequest(t)
	if !shares(t, a, baseRequest(t)) {
		t.Fatal("identical requests lead separate flights")
	}
	f, _ := NewTable(1).Join(context.Background(), a)
	defer f.Leave()
	if &f.req.Body[0] != &a.Body[0] {
		t.Fatal("the flight keeps a copy of the posted bytes")
	}
}

// TestSpecNormalization pins that strategy tuning a strategy cannot
// observe is normalized away, and the default name resolves to mh.
func TestSpecNormalization(t *testing.T) {
	base := baseRequest(t)
	shared := func(a, b Spec) bool {
		ra, rb := base, base
		ra.Strategy, rb.Strategy = a, b
		return shares(t, ra, rb)
	}
	if !shared(Spec{}, Spec{Name: "mh"}) {
		t.Error(`Spec{} and Spec{Name: "mh"} lead separate flights`)
	}
	if !shared(Spec{Name: "mh", SAIters: 500}, Spec{Name: "mh"}) {
		t.Error("mh observes SA tuning")
	}
	if !shared(Spec{Name: "ah", SASeed: 9}, Spec{Name: "ah"}) {
		t.Error("ah observes SA tuning")
	}
	if shared(Spec{Name: "sa", SAIters: 100}, Spec{Name: "sa", SAIters: 200}) {
		t.Error("sa ignores SAIters")
	}
	if shared(Spec{Name: "portfolio", SASeed: 1}, Spec{Name: "portfolio", SASeed: 2}) {
		t.Error("portfolio ignores SASeed")
	}
	if !shared(Spec{Name: "mh", SAChainOffset: 3}, Spec{Name: "mh"}) {
		t.Error("mh observes SAChainOffset")
	}
	if shared(Spec{Name: "sa", SAChainOffset: 1}, Spec{Name: "sa", SAChainOffset: 2}) {
		t.Error("sa ignores SAChainOffset")
	}
}

// TestFingerprintSensitivity mutates every result-relevant field one at
// a time and requires every mutation to lead its own flight beside the
// kept base and every mutation kept before it, and each kept request,
// rebuilt, to join its own flight again.
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
			r.Body = body(t, buildSystem(t, p))
			return r
		},
		"sys-extra-proc": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.procs = 5
			r.Body = body(t, buildSystem(t, p))
			return r
		},
		"sys-wcet": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.wcet = 4
			r.Body = body(t, buildSystem(t, p))
			return r
		},
		"sys-msg-bytes": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.msgBytes = 5
			r.Body = body(t, buildSystem(t, p))
			return r
		},
		"sys-period": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.period = 120
			r.Body = body(t, buildSystem(t, p))
			return r
		},
		"sys-app-name": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.appName = "other"
			r.Body = body(t, buildSystem(t, p))
			return r
		},
		"sys-slot-bytes": func(t *testing.T) Request {
			r := baseRequest(t)
			p := defaultSysParams()
			p.slotBytes = 16
			r.Body = body(t, buildSystem(t, p))
			return r
		},
		"sys-byte-time": func(t *testing.T) Request {
			r := baseRequest(t)
			sys := buildSystem(t, defaultSysParams())
			sys.Arch.Buses[0].ByteTime = 2
			r.Body = body(t, sys)
			return r
		},
		"sys-slot-order": func(t *testing.T) Request {
			r := baseRequest(t)
			sys := buildSystem(t, defaultSysParams())
			so := sys.Arch.Buses[0].SlotOrder
			so[0], so[1] = so[1], so[0]
			r.Body = body(t, sys)
			return r
		},
		// Multi-cluster topology: adding a second bus, moving the gateway,
		// re-attaching a node, and mirroring which bus carries which slot
		// table must all be distinct — slot ownership is what encodes bus
		// attachment and gateway placement, so each reshape moves the hash.
		"sys-second-bus": func(t *testing.T) Request {
			r := baseRequest(t)
			r.Body = body(t, buildClusteredSystem(t,
				[]model.NodeID{0, 1, 2}, []model.NodeID{2, 3}))
			return r
		},
		"sys-gateway-moved": func(t *testing.T) Request {
			r := baseRequest(t)
			r.Body = body(t, buildClusteredSystem(t,
				[]model.NodeID{0, 1, 2}, []model.NodeID{1, 3}))
			return r
		},
		"sys-bus-attachment": func(t *testing.T) Request {
			r := baseRequest(t)
			r.Body = body(t, buildClusteredSystem(t,
				[]model.NodeID{0, 2}, []model.NodeID{1, 2, 3}))
			return r
		},
		"sys-bus-swapped": func(t *testing.T) Request {
			r := baseRequest(t)
			r.Body = body(t, buildClusteredSystem(t,
				[]model.NodeID{2, 3}, []model.NodeID{0, 1, 2}))
			return r
		},
	}

	tb := NewTable(len(mutations) + 1)
	keep(t, tb, baseRequest(t), "base")
	for name, mutate := range mutations {
		f, leader := tb.Join(context.Background(), mutate(t))
		if !leader {
			prev, _ := f.Result()
			t.Errorf("mutation %q joins the flight of %v", name, prev)
		} else if kept, _ := f.Complete(name, nil, true); !kept {
			t.Errorf("mutation %q was not kept", name)
		}
		f.Leave()
	}
	if v, ok := lookup(tb, baseRequest(t)); !ok || v != "base" {
		t.Errorf("the rebuilt base joins %v, %v; want its kept flight", v, ok)
	}
	for name, mutate := range mutations {
		if v, ok := lookup(tb, mutate(t)); !ok || v != name {
			t.Errorf("mutation %q, rebuilt, joins %v, %v; want its kept flight", name, v, ok)
		}
	}
}

// FuzzFingerprint fuzzes the identity of posted bodies: for any
// generated system, the body System.WriteJSON writes must join its kept
// flight again when rebuilt, and a WCET bump must lead its own flight.
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
			return Request{Body: body(t, sys)}
		}
		tb := NewTable(2)
		keep(t, tb, req(p), "p")
		if v, ok := lookup(tb, req(p)); !ok || v != "p" {
			t.Fatalf("a rebuild joins %v, %v; want its kept flight", v, ok)
		}
		bumped := p
		bumped.wcet++
		if v, ok := lookup(tb, req(bumped)); ok {
			t.Fatalf("a WCET bump joins the flight of %v", v)
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
