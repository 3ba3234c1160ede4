package export

import (
	"fmt"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Check validates a deployable design against the system model it claims
// to implement — the last line of defense before a design image reaches a
// flashing tool, and deliberately independent of the scheduler that
// produced it. It is the one schedule oracle: the tests, incmap's map,
// verify and simulate commands, and the benchmark all rely on it. It
// verifies:
//
//   - the design's horizon is the system's hyperperiod; on a mismatch
//     that is the only violation reported, since every other check
//     counts occurrences over the horizon;
//   - every process occurrence of every application appears exactly once,
//     on a node its WCET table allows, running for exactly its WCET,
//     inside its release/deadline window;
//   - dispatch tables are sorted and non-overlapping, and activate only
//     process occurrences the system defines;
//   - every MEDL line carries a message occurrence the system defines;
//   - every inter-node message occurrence appears in the MEDL as a full
//     hop chain along the architecture's deterministic route — every hop
//     in a slot owned by its transmitting node on the route's bus,
//     ordered strictly after the previous hop's arrival (hop 0 after the
//     producer finishes), arriving before the consumer starts, without
//     overflowing any slot capacity;
//   - co-located message occurrences do not appear in the MEDL, and the
//     consumer starts after the producer finishes.
//
// The route each chain is checked against comes from model.BuildRoutes,
// recomputed here rather than trusted from the design, so a scheduler
// that picked a non-canonical route is caught. Processes and messages
// are looked up in all of sys's applications, so a caller may check a
// subset of them (pass as apps every application the design should
// fully schedule).
func Check(d *Design, sys *model.System, apps ...*model.Application) []string {
	if hp := sys.Hyperperiod(); hp <= 0 || d.Horizon != hp {
		return []string{fmt.Sprintf("design horizon %v, system hyperperiod %v", d.Horizon, hp)}
	}
	var errs []string
	report := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}
	buses := sys.Arch.Buses
	routes, rerr := model.BuildRoutes(sys.Arch)
	if rerr != nil {
		report("architecture has no route table: %v", rerr)
	}
	ix := model.NewIndex(sys.Apps...)

	type key struct {
		proc model.ProcID
		occ  int
	}
	entryAt := map[key]DispatchEntry{}
	nodeOf := map[key]model.NodeID{}
	for _, nt := range d.Nodes {
		if sys.Arch.Node(nt.Node) == nil {
			report("dispatch table for unknown node %d", nt.Node)
			continue
		}
		var prev DispatchEntry
		for i, e := range nt.Entries {
			if i > 0 && e.Start < prev.End {
				report("node %d: activation of process %d occ %d at %v overlaps previous ending %v",
					nt.Node, e.Proc, e.Occ, e.Start, prev.End)
			}
			prev = e
			if g := ix.GraphOf[e.Proc]; g == nil || e.Occ < 0 || e.Occ >= int(d.Horizon/g.Period) {
				report("node %d activates process %d occ %d, which the system does not define", nt.Node, e.Proc, e.Occ)
				continue
			}
			k := key{e.Proc, e.Occ}
			if _, dup := entryAt[k]; dup {
				report("process %d occ %d dispatched more than once", e.Proc, e.Occ)
				continue
			}
			entryAt[k] = e
			nodeOf[k] = nt.Node
		}
	}

	type mkey struct {
		msg model.MsgID
		occ int
		hop int
	}
	medlAt := map[mkey]medlIndexEntry{}
	hopCount := map[[2]int]int{} // (msg, occ) -> number of MEDL hops
	slotLoad := map[[3]int]int{} // (bus, round, slot) -> bytes
	for _, e := range d.MEDL {
		if g := ix.MsgGraph[e.Msg]; g == nil || e.Occ < 0 || e.Occ >= int(d.Horizon/g.Period) {
			report("MEDL carries message %d occ %d, which the system does not define", e.Msg, e.Occ)
			continue
		}
		if int(e.Bus) < 0 || int(e.Bus) >= len(buses) {
			report("message %d occ %d hop %d on nonexistent bus %d", e.Msg, e.Occ, e.Hop, e.Bus)
			continue
		}
		bus := buses[e.Bus]
		k := mkey{e.Msg, e.Occ, e.Hop}
		if _, dup := medlAt[k]; dup {
			report("message %d occ %d in the MEDL more than once", e.Msg, e.Occ)
			continue
		}
		if e.Slot < 0 || e.Slot >= bus.NumSlots() {
			report("message %d occ %d in nonexistent slot %d", e.Msg, e.Occ, e.Slot)
			continue
		}
		medlAt[k] = medlIndexEntry{
			Bus:    e.Bus,
			Owner:  bus.SlotOrder[e.Slot],
			Start:  bus.SlotStart(e.Round, e.Slot),
			Arrive: bus.SlotEnd(e.Round, e.Slot),
			Bytes:  e.Bytes,
		}
		hopCount[[2]int{int(e.Msg), e.Occ}]++
		slotLoad[[3]int{int(e.Bus), e.Round, e.Slot}] += e.Bytes
	}
	for k, load := range slotLoad {
		if load > buses[k[0]].SlotBytes[k[2]] {
			report("slot occurrence (round %d, slot %d) carries %d bytes, capacity %d",
				k[1], k[2], load, buses[k[0]].SlotBytes[k[2]])
		}
	}

	for _, app := range apps {
		for _, g := range app.Graphs {
			occs := int(d.Horizon / g.Period)
			for occ := 0; occ < occs; occ++ {
				release := tm.Time(occ) * g.Period
				deadline := release + g.Deadline
				for _, p := range g.Procs {
					k := key{p.ID, occ}
					e, ok := entryAt[k]
					if !ok {
						report("process %d (%s) occ %d missing from every dispatch table", p.ID, p.Name, occ)
						continue
					}
					node := nodeOf[k]
					w, allowed := p.WCET[node]
					switch {
					case !allowed:
						report("process %d occ %d dispatched on disallowed node %d", p.ID, occ, node)
					case e.End-e.Start != w:
						report("process %d occ %d runs %v, WCET on node %d is %v", p.ID, occ, e.End-e.Start, node, w)
					}
					if e.Start < release {
						report("process %d occ %d starts %v before its release %v", p.ID, occ, e.Start, release)
					}
					if e.End > deadline {
						report("process %d occ %d ends %v after its deadline %v", p.ID, occ, e.End, deadline)
					}
				}
				for _, m := range g.Msgs {
					src, okS := entryAt[key{m.Src, occ}]
					dst, okD := entryAt[key{m.Dst, occ}]
					if !okS || !okD {
						continue // already reported as missing
					}
					srcNode, dstNode := nodeOf[key{m.Src, occ}], nodeOf[key{m.Dst, occ}]
					hops := hopCount[[2]int{int(m.ID), occ}]
					if srcNode == dstNode {
						if hops > 0 {
							report("message %d occ %d between co-located processes is in the MEDL", m.ID, occ)
						}
						if dst.Start < src.End {
							report("message %d occ %d: co-located consumer starts %v before producer ends %v",
								m.ID, occ, dst.Start, src.End)
						}
						continue
					}
					if hops == 0 {
						report("inter-node message %d occ %d missing from the MEDL", m.ID, occ)
						continue
					}
					if routes == nil {
						continue // no oracle to check the chain against
					}
					route := routes.Route(srcNode, dstNode)
					if hops != len(route) {
						report("message %d occ %d has %d MEDL hops, route from node %d to node %d has %d",
							m.ID, occ, hops, srcNode, dstNode, len(route))
						continue
					}
					prevArrive := src.End
					for i, hop := range route {
						me, ok := medlAt[mkey{m.ID, occ, i}]
						if !ok {
							report("message %d occ %d hop %d missing from the MEDL", m.ID, occ, i)
							break
						}
						if me.Bus != hop.Bus {
							report("message %d occ %d hop %d on bus %d, route says bus %d",
								m.ID, occ, i, me.Bus, hop.Bus)
						}
						if me.Owner != hop.From {
							report("message %d occ %d hop %d in a slot owned by node %d, sender is node %d",
								m.ID, occ, i, me.Owner, hop.From)
						}
						if me.Start < prevArrive {
							if i == 0 {
								report("message %d occ %d slot starts %v before producer ends %v", m.ID, occ, me.Start, prevArrive)
							} else {
								report("message %d occ %d hop %d slot starts %v before hop %d arrives %v",
									m.ID, occ, i, me.Start, i-1, prevArrive)
							}
						}
						if me.Bytes != m.Bytes {
							report("message %d occ %d carries %d bytes, model says %d", m.ID, occ, me.Bytes, m.Bytes)
						}
						prevArrive = me.Arrive
					}
					if dst.Start < prevArrive {
						report("message %d occ %d consumer starts %v before arrival %v", m.ID, occ, dst.Start, prevArrive)
					}
				}
			}
		}
	}
	return errs
}

// medlIndexEntry is the resolved timing of one MEDL line, derived from
// the bus description during Check.
type medlIndexEntry struct {
	Bus    model.BusID
	Owner  model.NodeID
	Start  tm.Time
	Arrive tm.Time
	Bytes  int
}
