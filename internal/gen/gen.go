// Package gen produces synthetic workloads for the incremental-design
// experiments: random layered process graphs with heterogeneous WCETs,
// applications assembled from them, TTP platforms, and complete
// incremental-design test cases (an existing workload of ~400 processes
// already mapped and scheduled by the mapping heuristic, a current
// application to place, and a future-application profile).
//
// Two platform families are supported. Config.Clusters <= 1 reproduces
// the paper's evaluation setup exactly: one TDMA bus with one uniform
// slot per node. Config.Clusters > 1 generalizes it to multi-cluster
// platforms — Clusters buses of Nodes nodes each, joined in a chain by
// gateway nodes that own slots on two adjacent buses — with
// InterClusterFrac of the processes homed on a neighboring cluster so a
// tunable share of the traffic has to cross gateways hop by hop.
//
// All generation is driven by an explicit seed; the same seed always
// produces the same test case, and single-cluster output is bit-for-bit
// identical to what the generator produced before multi-cluster support
// existed.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Config controls the generator. Default() mirrors the paper's setup.
// A test case's existing applications are always placed by the mapping
// heuristic, one increment at a time (see MakeTestCase).
type Config struct {
	// Architecture. Nodes is the node count per cluster; with Clusters
	// at most 1 it is the total node count, exactly as in the paper.
	Nodes        int
	SlotBytes    int
	ByteTime     tm.Time
	SlotOverhead tm.Time

	// Multi-cluster platform. Clusters <= 1 selects the paper's
	// single-bus family; Clusters > 1 builds that many TDMA buses of
	// Nodes nodes each, chained by gateway nodes.
	Clusters int
	// GatewaysPerLink is how many nodes of cluster c also own a slot on
	// bus c+1 (minimum and default 1).
	GatewaysPerLink int
	// InterClusterFrac is the probability that a process is homed on a
	// cluster neighboring its graph's home cluster, which is what forces
	// messages across gateways.
	InterClusterFrac float64

	// Graph structure.
	GraphMinProcs int     // smallest graph size
	GraphMaxProcs int     // largest graph size
	ExtraEdgeProb float64 // chance of a second predecessor per process

	// Process parameters (the slide-10 histograms span these ranges).
	WCETMin, WCETMax tm.Time
	MsgMin, MsgMax   int
	AllowedFrac      float64 // fraction of nodes a process may map to
	HeteroSpread     float64 // WCET varies by +-spread across nodes

	// Timing.
	TargetUtil   float64 // desired processor utilization of the workload
	PeriodLevels []int   // graph periods are level * base period

	// Future application profile.
	FutureUtil    float64 // TNeed as a fraction of N * Tmin
	FutureBusFrac float64 // BNeedBytes as a fraction of bus bytes per Tmin
	FutureTminDen int     // Tmin = base period / FutureTminDen
}

// Default returns the configuration used throughout the experiments:
// 10 nodes as in the paper's evaluation, WCETs in [20,150], messages of
// 2-8 bytes, graphs of 10-30 processes.
func Default() Config {
	return Config{
		Nodes:         10,
		SlotBytes:     32,
		ByteTime:      1,
		SlotOverhead:  8,
		GraphMinProcs: 10,
		GraphMaxProcs: 30,
		ExtraEdgeProb: 0.25,
		WCETMin:       20,
		WCETMax:       150,
		MsgMin:        2,
		MsgMax:        8,
		AllowedFrac:   0.6,
		HeteroSpread:  0.5,
		TargetUtil:    0.65,
		PeriodLevels:  []int{1, 2},
		FutureUtil:    0.30,
		FutureBusFrac: 0.15,
		FutureTminDen: 4,
	}
}

// Multicluster returns the Default configuration reshaped into a
// K-cluster platform: nodesPerCluster nodes on each of clusters TDMA
// buses, adjacent buses joined by one gateway node, and interFrac of
// the processes homed on a neighboring cluster so that fraction of the
// traffic has to cross gateways.
func Multicluster(clusters, nodesPerCluster int, interFrac float64) Config {
	cfg := Default()
	cfg.Nodes = nodesPerCluster
	cfg.Clusters = clusters
	cfg.GatewaysPerLink = 1
	cfg.InterClusterFrac = interFrac
	return cfg
}

// Generator creates model objects with globally unique IDs.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	arch *model.Architecture
	// home is the current graph's home cluster (multi-cluster only).
	home int

	nextApp   model.AppID
	nextGraph model.GraphID
	nextProc  model.ProcID
	nextMsg   model.MsgID
}

// New returns a generator for the given configuration and seed. The
// architecture is fixed at construction: cfg.Nodes nodes per cluster,
// one uniform TDMA slot per node in node order, and — when cfg.Clusters
// exceeds 1 — a chain of buses whose links are gateway nodes owning a
// slot on both adjacent buses.
func New(cfg Config, seed int64) *Generator {
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(seed)), arch: buildArch(cfg)}
}

// buildArch is the model's cluster chain over cfg.Clusters clusters of
// cfg.Nodes nodes, with GatewaysPerLink clamped to [1, Nodes] and nodes
// named N<id>.
func buildArch(cfg Config) *model.Architecture {
	sizes := make([]int, max(cfg.Clusters, 1))
	for c := range sizes {
		sizes[c] = cfg.Nodes
	}
	gpl := min(max(cfg.GatewaysPerLink, 1), cfg.Nodes)
	arch := model.ClusterChain(sizes, gpl, cfg.SlotBytes, cfg.ByteTime, cfg.SlotOverhead)
	for _, n := range arch.Nodes {
		n.Name = fmt.Sprintf("N%d", n.ID)
	}
	return arch
}

// Architecture returns the generator's platform.
func (g *Generator) Architecture() *model.Architecture { return g.arch }

// totalNodes is the processor count the utilization math divides by.
// Single-bus platforms keep using cfg.Nodes — the historical behavior,
// even for loaded systems whose node count differs — while multi-bus
// platforms count the architecture's actual nodes.
func (g *Generator) totalNodes() int {
	if len(g.arch.Buses) > 1 {
		return len(g.arch.Nodes)
	}
	return g.cfg.Nodes
}

// StartIDsAt moves the generator's ID counters to base so that generated
// objects cannot collide with an existing system's IDs. Use it on any
// generator whose output will be scheduled next to objects from another
// generator (e.g. sampling future applications for a test case).
func (g *Generator) StartIDsAt(base int) {
	g.nextApp = model.AppID(base)
	g.nextGraph = model.GraphID(base)
	g.nextProc = model.ProcID(base)
	g.nextMsg = model.MsgID(base)
}

// wcetTable draws a heterogeneous WCET table over the given candidate
// pool: a base execution time in [WCETMin, WCETMax], varied per allowed
// node by +-HeteroSpread.
func (g *Generator) wcetTable(pool []*model.Node) map[model.NodeID]tm.Time {
	base := g.cfg.WCETMin + tm.Time(g.rng.Int63n(int64(g.cfg.WCETMax-g.cfg.WCETMin+1)))
	nAllowed := int(math.Ceil(g.cfg.AllowedFrac * float64(len(pool))))
	if nAllowed < 1 {
		nAllowed = 1
	}
	perm := g.rng.Perm(len(pool))[:nAllowed]
	table := make(map[model.NodeID]tm.Time, nAllowed)
	for _, idx := range perm {
		f := 1 + g.cfg.HeteroSpread*(2*g.rng.Float64()-1)
		w := tm.Time(math.Round(float64(base) * f))
		if w < 1 {
			w = 1
		}
		table[pool[idx].ID] = w
	}
	return table
}

// procPool returns the candidate nodes for the next process: every node
// on a single-cluster platform; on a multi-cluster platform the current
// graph's home cluster or, with probability InterClusterFrac, one of
// its neighbors — which is what produces gateway-crossing messages.
func (g *Generator) procPool() []*model.Node {
	if g.cfg.Clusters <= 1 {
		return g.arch.Nodes
	}
	c := g.home
	if g.rng.Float64() < g.cfg.InterClusterFrac {
		if c+1 < g.cfg.Clusters {
			c++
		} else {
			c--
		}
	}
	return g.arch.Nodes[c*g.cfg.Nodes : (c+1)*g.cfg.Nodes]
}

// graph generates one layered DAG with nProcs processes. Periods and
// deadlines are filled in later (they depend on the whole workload).
func (g *Generator) graph(name string, nProcs int) *model.Graph {
	gr := &model.Graph{ID: g.nextGraph, Name: name}
	g.nextGraph++
	if g.cfg.Clusters > 1 {
		g.home = g.rng.Intn(g.cfg.Clusters)
	}

	// Spread processes over ~sqrt(n) layers so graphs are neither chains
	// nor bags of independent tasks.
	nLayers := int(math.Max(2, math.Round(math.Sqrt(float64(nProcs)))))
	if nProcs == 1 {
		nLayers = 1
	}
	layerOf := make([]int, nProcs)
	for i := range layerOf {
		if i < nLayers {
			layerOf[i] = i // guarantee every layer is populated
		} else {
			layerOf[i] = g.rng.Intn(nLayers)
		}
	}
	procs := make([]*model.Process, nProcs)
	for i := 0; i < nProcs; i++ {
		procs[i] = &model.Process{
			ID:   g.nextProc,
			Name: fmt.Sprintf("%s.P%d", name, i),
			WCET: g.wcetTable(g.procPool()),
		}
		g.nextProc++
	}
	gr.Procs = procs

	// Every process beyond layer 0 receives at least one message from a
	// random process of the previous layer, plus extra edges with
	// ExtraEdgeProb from any earlier layer.
	byLayer := make([][]int, nLayers)
	for i, l := range layerOf {
		byLayer[l] = append(byLayer[l], i)
	}
	msgSize := func() int {
		return g.cfg.MsgMin + g.rng.Intn(g.cfg.MsgMax-g.cfg.MsgMin+1)
	}
	addMsg := func(src, dst int) {
		gr.Msgs = append(gr.Msgs, &model.Message{
			ID:    g.nextMsg,
			Name:  fmt.Sprintf("m%d", g.nextMsg),
			Src:   procs[src].ID,
			Dst:   procs[dst].ID,
			Bytes: msgSize(),
		})
		g.nextMsg++
	}
	for l := 1; l < nLayers; l++ {
		for _, dst := range byLayer[l] {
			prev := byLayer[l-1]
			addMsg(prev[g.rng.Intn(len(prev))], dst)
			if g.rng.Float64() < g.cfg.ExtraEdgeProb {
				// Second predecessor from any earlier layer.
				el := g.rng.Intn(l)
				cands := byLayer[el]
				src := cands[g.rng.Intn(len(cands))]
				if !hasEdge(gr, procs[src].ID, procs[dst].ID) {
					addMsg(src, dst)
				}
			}
		}
	}
	return gr
}

func hasEdge(gr *model.Graph, src, dst model.ProcID) bool {
	for _, m := range gr.Msgs {
		if m.Src == src && m.Dst == dst {
			return true
		}
	}
	return false
}

// Application generates an application of approximately nProcs processes,
// split into graphs of GraphMinProcs..GraphMaxProcs. Each graph gets a
// period level drawn from PeriodLevels; absolute periods are assigned by
// AssignPeriods once the whole workload exists.
func (g *Generator) Application(name string, nProcs int) (*model.Application, []int) {
	app := &model.Application{ID: g.nextApp, Name: name}
	g.nextApp++
	var levels []int
	remaining := nProcs
	for i := 0; remaining > 0; i++ {
		n := g.cfg.GraphMinProcs
		if g.cfg.GraphMaxProcs > g.cfg.GraphMinProcs {
			n += g.rng.Intn(g.cfg.GraphMaxProcs - g.cfg.GraphMinProcs + 1)
		}
		if n > remaining {
			n = remaining
		}
		gr := g.graph(fmt.Sprintf("%s.G%d", name, i), n)
		app.Graphs = append(app.Graphs, gr)
		levels = append(levels, g.cfg.PeriodLevels[g.rng.Intn(len(g.cfg.PeriodLevels))])
		remaining -= n
	}
	return app, levels
}
