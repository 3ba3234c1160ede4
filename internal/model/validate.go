package model

import "fmt"

// Validate checks a graph in the context of an architecture: acyclicity,
// positive timing parameters, WCETs restricted to real nodes.
func (g *Graph) Validate(arch *Architecture) error {
	if g.Period <= 0 {
		return fmt.Errorf("model: graph %q has non-positive period %v", g.Name, g.Period)
	}
	if g.Deadline <= 0 || g.Deadline > g.Period {
		return fmt.Errorf("model: graph %q deadline %v must satisfy 0 < D <= period %v",
			g.Name, g.Deadline, g.Period)
	}
	if len(g.Procs) == 0 {
		return fmt.Errorf("model: graph %q has no processes", g.Name)
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for _, p := range g.Procs {
		if len(p.WCET) == 0 {
			return fmt.Errorf("model: process %d (%s) has no allowed node", p.ID, p.Name)
		}
		for n, w := range p.WCET {
			if arch != nil && arch.Node(n) == nil {
				return fmt.Errorf("model: process %d has WCET for unknown node %d", p.ID, n)
			}
			if w <= 0 {
				return fmt.Errorf("model: process %d has non-positive WCET %v on node %d", p.ID, w, n)
			}
			if w > g.Deadline {
				return fmt.Errorf("model: process %d WCET %v on node %d exceeds graph deadline %v",
					p.ID, w, n, g.Deadline)
			}
		}
	}
	seenMsg := map[MsgID]bool{}
	for _, m := range g.Msgs {
		if seenMsg[m.ID] {
			return fmt.Errorf("model: graph %q: duplicate message id %d", g.Name, m.ID)
		}
		seenMsg[m.ID] = true
		if m.Bytes <= 0 {
			return fmt.Errorf("model: message %d has non-positive size %d", m.ID, m.Bytes)
		}
		if m.Src == m.Dst {
			return fmt.Errorf("model: message %d is a self-loop on process %d", m.ID, m.Src)
		}
	}
	return nil
}

// Validate checks the application against the architecture.
func (a *Application) Validate(arch *Architecture) error {
	if len(a.Graphs) == 0 {
		return fmt.Errorf("model: application %q has no graphs", a.Name)
	}
	seenG := map[GraphID]bool{}
	for _, g := range a.Graphs {
		if seenG[g.ID] {
			return fmt.Errorf("model: application %q: duplicate graph id %d", a.Name, g.ID)
		}
		seenG[g.ID] = true
		if err := g.Validate(arch); err != nil {
			return fmt.Errorf("application %q: %w", a.Name, err)
		}
	}
	return nil
}

// Bounds on what scheduling a system allocates over its hyperperiod: the
// TDMA slot occurrences of every bus (ttp.NewState keeps one ledger entry
// each) and the process and message occurrences of every graph (the jobs
// a schedule places). A hyperperiod that fits in tm.Time can still ask
// for terabytes: two one-process applications with prime periods near
// 10^6 on a 20-unit round need 2·10^12 slot occurrences. Every generated
// family measured needs under 2,300 of either.
const (
	maxSlotOccurrences = 1 << 16
	maxJobOccurrences  = 1 << 16
)

// Validate checks the complete system: architecture, at least one
// application (the future profile's base period is the smallest of
// their periods), every application, global ID uniqueness, that every
// message fits into at least one slot of its possible sender nodes, that
// the hyperperiod is a positive tm.Time, and that the slot and job
// occurrences over it stay within their bounds.
func (s *System) Validate() error {
	if s.Arch == nil {
		return fmt.Errorf("model: system has no architecture")
	}
	if err := s.Arch.Validate(); err != nil {
		return err
	}
	if len(s.Apps) == 0 {
		return fmt.Errorf("model: system has no applications")
	}
	seenApp := map[AppID]bool{}
	seenGraph := map[GraphID]bool{}
	seenProc := map[ProcID]bool{}
	seenMsg := map[MsgID]bool{}
	for _, a := range s.Apps {
		if seenApp[a.ID] {
			return fmt.Errorf("model: duplicate application id %d", a.ID)
		}
		seenApp[a.ID] = true
		if err := a.Validate(s.Arch); err != nil {
			return err
		}
		for _, g := range a.Graphs {
			if seenGraph[g.ID] {
				return fmt.Errorf("model: graph id %d used by more than one application", g.ID)
			}
			seenGraph[g.ID] = true
			for _, p := range g.Procs {
				if seenProc[p.ID] {
					return fmt.Errorf("model: process id %d used more than once", p.ID)
				}
				seenProc[p.ID] = true
			}
			for _, m := range g.Msgs {
				if seenMsg[m.ID] {
					return fmt.Errorf("model: message id %d used more than once", m.ID)
				}
				seenMsg[m.ID] = true
				if err := s.msgFitsSomeSlot(g, m); err != nil {
					return err
				}
			}
		}
	}
	hp, err := s.hyperperiod()
	if err != nil {
		return fmt.Errorf("model: system has no hyperperiod: %w", err)
	}
	// A hyperperiod makes every round and period positive, and every bus
	// and graph has a slot and a process, so no divisor below is 0.
	var occ int64
	for _, b := range s.Arch.Buses {
		n, k := int64(hp/b.RoundLen()), int64(b.NumSlots())
		if n > (maxSlotOccurrences-occ)/k {
			return fmt.Errorf("model: the buses have more than %d slot occurrences over the hyperperiod %v", maxSlotOccurrences, hp)
		}
		occ += n * k
	}
	occ = 0
	for _, a := range s.Apps {
		for _, g := range a.Graphs {
			n, k := int64(hp/g.Period), int64(len(g.Procs)+len(g.Msgs))
			if n > (maxJobOccurrences-occ)/k {
				return fmt.Errorf("model: the graphs have more than %d process and message occurrences over the hyperperiod %v", maxJobOccurrences, hp)
			}
			occ += n * k
		}
	}
	return nil
}

// msgFitsSomeSlot verifies that for every node the source process may be
// mapped to, the message fits into at least one slot of that node: a
// message larger than its sender's slot can never be transmitted (the
// model does not fragment frames).
func (s *System) msgFitsSomeSlot(g *Graph, m *Message) error {
	var src *Process
	for _, p := range g.Procs {
		if p.ID == m.Src {
			src = p
			break
		}
	}
	if src == nil {
		return fmt.Errorf("model: message %d has unknown source %d", m.ID, m.Src)
	}
	for n := range src.WCET {
		fits := false
		for _, b := range s.Arch.Buses {
			for _, slot := range b.SlotsOf(n) {
				if m.Bytes <= b.SlotBytes[slot] {
					fits = true
					break
				}
			}
			if fits {
				break
			}
		}
		if !fits {
			return fmt.Errorf("model: message %d (%d bytes) does not fit any slot of candidate sender node %d",
				m.ID, m.Bytes, n)
		}
	}
	return nil
}
