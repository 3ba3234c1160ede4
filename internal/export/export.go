// Package export turns a finished schedule into the artifacts a
// time-triggered deployment consumes: one static dispatch table per node
// (the process activation times a TTP node's kernel executes verbatim)
// and the bus MEDL (message descriptor list, the slot table a TTP
// controller is configured from), both laid out by Build. Designs
// serialize to JSON and to a compact checksummed binary image suitable
// for flashing tools. The image is write-only here: designs are read
// back from JSON.
//
// Check verifies a design against the system it claims to implement,
// independently of the scheduler, and is the repository's one schedule
// oracle. It first requires the design's horizon to be the system's
// hyperperiod, then checks every process and message occurrence:
// completeness, WCET, release and deadline, node exclusivity,
// precedence, TDMA slot ownership along the canonical route, hop order
// and slot capacity. Dispatch activations and MEDL lines of process or
// message occurrences the system does not define are violations too.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"incdes/internal/model"
	"incdes/internal/sched"
	"incdes/internal/tm"
)

// DispatchEntry is one activation in a node's static dispatch table.
type DispatchEntry struct {
	Start tm.Time      `json:"start"`
	End   tm.Time      `json:"end"`
	Proc  model.ProcID `json:"proc"`
	Occ   int          `json:"occ"`
	App   model.AppID  `json:"app"`
}

// NodeTable is the complete dispatch table of one node over the horizon.
type NodeTable struct {
	Node    model.NodeID    `json:"node"`
	Entries []DispatchEntry `json:"entries"`
}

// Design is the deployable output of the design process. RoundLen is
// the first bus's TDMA round; RoundLens lists every bus's round length
// and is only present for multi-cluster designs, so single-bus designs
// serialize exactly as they always have.
type Design struct {
	Horizon   tm.Time                       `json:"horizon"`
	RoundLen  tm.Time                       `json:"round_len"`
	RoundLens []tm.Time                     `json:"round_lens,omitempty"`
	Mapping   map[model.ProcID]model.NodeID `json:"mapping"`
	Nodes     []NodeTable                   `json:"nodes"`
	MEDL      []MEDLEntry                   `json:"medl"`
}

// MEDLEntry is one line of the message descriptor list: inside slot
// occurrence (Round, Slot) of bus Bus, the message occupies
// [Offset, Offset+Bytes). TTP controllers are configured from exactly
// this static table, one per bus; the bus and hop fields are omitted for
// single-bus designs so their serialized form is unchanged.
type MEDLEntry struct {
	Round  int          `json:"round"`
	Slot   int          `json:"slot"`
	Offset int          `json:"offset"`
	Msg    model.MsgID  `json:"msg"`
	Occ    int          `json:"occ"`
	Bytes  int          `json:"bytes"`
	Owner  model.NodeID `json:"owner"`
	Start  tm.Time      `json:"start"`
	End    tm.Time      `json:"end"`
	Bus    model.BusID  `json:"bus,omitempty"`
	Hop    int          `json:"hop,omitempty"`
}

// Build extracts the deployable design from a schedule state.
func Build(st *sched.State) (*Design, error) {
	arch := st.System().Arch
	d := &Design{
		Horizon:  st.Horizon(),
		RoundLen: arch.Buses[0].RoundLen(),
		Mapping:  st.Mapping(),
	}
	if len(arch.Buses) > 1 {
		d.RoundLens = make([]tm.Time, len(arch.Buses))
		for i, b := range arch.Buses {
			d.RoundLens[i] = b.RoundLen()
		}
	}
	byNode := map[model.NodeID][]DispatchEntry{}
	for _, e := range st.ProcEntries() {
		byNode[e.Node] = append(byNode[e.Node], DispatchEntry{
			Start: e.Start, End: e.End, Proc: e.Proc, Occ: e.Occ, App: e.App,
		})
	}
	for _, n := range st.System().Arch.NodeIDs() {
		entries := byNode[n]
		sort.Slice(entries, func(i, j int) bool { return entries[i].Start < entries[j].Start })
		for i := 1; i < len(entries); i++ {
			if entries[i].Start < entries[i-1].End {
				return nil, fmt.Errorf("export: node %d dispatch table overlaps at %v", n, entries[i].Start)
			}
		}
		d.Nodes = append(d.Nodes, NodeTable{Node: n, Entries: entries})
	}
	medl, err := buildMEDL(arch.Buses, st.MsgEntries())
	if err != nil {
		return nil, err
	}
	d.MEDL = medl
	return d, nil
}

// buildMEDL lays every scheduled bus hop out inside its slot occurrence
// and returns the descriptor list sorted by (Start, Bus, Offset). On one
// bus a slot occurrence is identified by its start (slots have positive
// durations), so sorting the hops by (Start, Bus, message, occurrence)
// puts each occurrence's hops next to each other in the order their byte
// offsets are assigned, and one pass lays them out. An overflowing slot
// occurrence is an error; the scheduler reserves capacity before it
// places a hop, so it would indicate a scheduler bug.
func buildMEDL(buses []*model.Bus, hops []sched.MsgEntry) ([]MEDLEntry, error) {
	hops = slices.Clone(hops)
	sort.Slice(hops, func(i, j int) bool {
		a, b := hops[i], hops[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Bus != b.Bus {
			return a.Bus < b.Bus
		}
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		return a.Occ < b.Occ
	})
	var medl []MEDLEntry
	offset := 0
	for i, h := range hops {
		if i > 0 && (h.Start != hops[i-1].Start || h.Bus != hops[i-1].Bus) {
			offset = 0
		}
		bus := buses[h.Bus]
		if offset+h.Bytes > bus.SlotBytes[h.Slot] {
			return nil, fmt.Errorf("export: bus %d slot occurrence (%d,%d) overflows: offset %d + %d bytes > capacity %d",
				h.Bus, h.Round, h.Slot, offset, h.Bytes, bus.SlotBytes[h.Slot])
		}
		medl = append(medl, MEDLEntry{
			Round: h.Round, Slot: h.Slot, Offset: offset,
			Msg: h.Msg, Occ: h.Occ, Bytes: h.Bytes,
			Owner: bus.SlotOrder[h.Slot], Start: h.Start, End: h.Arrive,
			Bus: h.Bus, Hop: h.Hop,
		})
		offset += h.Bytes
	}
	return medl, nil
}

// WriteJSON serializes the design as indented JSON.
func (d *Design) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("export: encode design: %w", err)
	}
	return nil
}

// ReadDesign parses a design from JSON.
func ReadDesign(r io.Reader) (*Design, error) {
	var d Design
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("export: decode design: %w", err)
	}
	return &d, nil
}
