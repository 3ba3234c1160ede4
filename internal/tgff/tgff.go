// Package tgff reads task graphs in a subset of the TGFF format (Dick,
// Rhodes, Wolf: "TGFF: Task Graphs For Free", CODES 1998), the de-facto
// benchmark interchange format of the hardware/software co-design
// community — including the line of work this library reproduces.
//
// The supported subset covers what the incremental-design model needs:
//
//	@TASK_GRAPH <id> {
//	    PERIOD <int>
//	    DEADLINE <int>          # extension; defaults to PERIOD
//	    TASK <name> TYPE <int>
//	    ARC <name> FROM <task> TO <task> TYPE <int>
//	}
//	@PE <id> {
//	    # one row per task type:
//	    <type> <exec_time>
//	}
//	@COMMUN <id> {
//	    # one row per arc type:
//	    <type> <bytes>
//	}
//
// '#' starts a comment; blank lines are ignored. Each @PE block becomes
// one processing node; a task may run on every PE whose table lists its
// type. Arc types resolve to message sizes through the @COMMUN table
// (all @COMMUN blocks are merged). Build assembles the result into a
// model.System around a caller-supplied TDMA bus configuration, since
// TGFF says nothing about buses.
package tgff

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"incdes/internal/model"
	"incdes/internal/tm"
)

// Task is one TASK line.
type Task struct {
	Name string
	Type int
}

// Arc is one ARC line.
type Arc struct {
	Name     string
	From, To string
	Type     int
}

// GraphSpec is one @TASK_GRAPH block.
type GraphSpec struct {
	ID       int
	Period   tm.Time
	Deadline tm.Time
	Tasks    []Task
	Arcs     []Arc
}

// PETable is one @PE block: execution time per task type.
type PETable struct {
	ID   int
	Exec map[int]tm.Time
}

// File is a parsed TGFF document.
type File struct {
	Graphs []GraphSpec
	PEs    []PETable
	Commun map[int]int // arc type -> bytes
}

// Parse reads a TGFF document.
func Parse(r io.Reader) (*File, error) {
	f := &File{Commun: map[int]int{}}
	sc := bufio.NewScanner(r)
	lineNo := 0

	type blockKind int
	const (
		none blockKind = iota
		taskGraph
		pe
		commun
	)
	kind := none
	var curGraph *GraphSpec
	var curPE *PETable

	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("tgff: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}

		switch {
		case strings.HasPrefix(fields[0], "@"):
			if kind != none {
				return nil, fail("block %q opened inside another block", fields[0])
			}
			if len(fields) < 3 || fields[len(fields)-1] != "{" {
				return nil, fail("expected '@NAME <id> {'")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad block id %q", fields[1])
			}
			switch fields[0] {
			case "@TASK_GRAPH":
				kind = taskGraph
				f.Graphs = append(f.Graphs, GraphSpec{ID: id})
				curGraph = &f.Graphs[len(f.Graphs)-1]
			case "@PE":
				kind = pe
				f.PEs = append(f.PEs, PETable{ID: id, Exec: map[int]tm.Time{}})
				curPE = &f.PEs[len(f.PEs)-1]
			case "@COMMUN":
				kind = commun
			default:
				return nil, fail("unknown block %q", fields[0])
			}

		case fields[0] == "}":
			if kind == none {
				return nil, fail("'}' outside any block")
			}
			kind = none
			curGraph, curPE = nil, nil

		case kind == taskGraph:
			if err := parseGraphLine(curGraph, fields); err != nil {
				return nil, fail("%v", err)
			}

		case kind == pe:
			if len(fields) != 2 {
				return nil, fail("expected '<type> <exec_time>'")
			}
			typ, err1 := strconv.Atoi(fields[0])
			t, err2 := strconv.ParseInt(fields[1], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fail("bad PE row %q", strings.Join(fields, " "))
			}
			curPE.Exec[typ] = tm.Time(t)

		case kind == commun:
			if len(fields) != 2 {
				return nil, fail("expected '<type> <bytes>'")
			}
			typ, err1 := strconv.Atoi(fields[0])
			b, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fail("bad COMMUN row %q", strings.Join(fields, " "))
			}
			f.Commun[typ] = b

		default:
			return nil, fail("statement %q outside any block", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tgff: %w", err)
	}
	if kind != none {
		return nil, fmt.Errorf("tgff: unterminated block at end of input")
	}
	if len(f.Graphs) == 0 {
		return nil, fmt.Errorf("tgff: no @TASK_GRAPH blocks")
	}
	if len(f.PEs) == 0 {
		return nil, fmt.Errorf("tgff: no @PE blocks")
	}
	return f, nil
}

func parseGraphLine(g *GraphSpec, fields []string) error {
	switch fields[0] {
	case "PERIOD", "DEADLINE":
		if len(fields) != 2 {
			return fmt.Errorf("expected '%s <int>'", fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad %s %q", fields[0], fields[1])
		}
		if fields[0] == "PERIOD" {
			g.Period = tm.Time(v)
		} else {
			g.Deadline = tm.Time(v)
		}
	case "TASK":
		// TASK <name> TYPE <int>
		if len(fields) != 4 || fields[2] != "TYPE" {
			return fmt.Errorf("expected 'TASK <name> TYPE <int>'")
		}
		typ, err := strconv.Atoi(fields[3])
		if err != nil {
			return fmt.Errorf("bad task type %q", fields[3])
		}
		g.Tasks = append(g.Tasks, Task{Name: fields[1], Type: typ})
	case "ARC":
		// ARC <name> FROM <task> TO <task> TYPE <int>
		if len(fields) != 8 || fields[2] != "FROM" || fields[4] != "TO" || fields[6] != "TYPE" {
			return fmt.Errorf("expected 'ARC <name> FROM <t> TO <t> TYPE <int>'")
		}
		typ, err := strconv.Atoi(fields[7])
		if err != nil {
			return fmt.Errorf("bad arc type %q", fields[7])
		}
		g.Arcs = append(g.Arcs, Arc{Name: fields[1], From: fields[3], To: fields[5], Type: typ})
	default:
		return fmt.Errorf("unknown statement %q in @TASK_GRAPH", fields[0])
	}
	return nil
}

// BusConfig supplies what TGFF cannot: the TDMA bus parameters.
type BusConfig struct {
	SlotBytes    int
	ByteTime     tm.Time
	SlotOverhead tm.Time
	// Clusters splits the PEs over that many TDMA buses (contiguous
	// blocks in file order, sized as evenly as possible) chained by
	// gateway nodes: the last PE of each cluster also owns a slot on the
	// next cluster's bus. 0 or 1 keeps the classic single-bus platform.
	Clusters int
}

// buildArch realizes the bus configuration over the file's PEs: one bus
// carrying every PE, or bus.Clusters buses chained by gateway PEs.
func buildArch(f *File, bus BusConfig) (*model.Architecture, error) {
	k := max(bus.Clusters, 1)
	if k > len(f.PEs) {
		return nil, fmt.Errorf("tgff: %d clusters but only %d PEs", k, len(f.PEs))
	}
	// Contiguous blocks in file order, the first n%k clusters one PE
	// larger; each cluster's last PE is the gateway onto the next bus.
	sizes := make([]int, k)
	for c := range sizes {
		sizes[c] = len(f.PEs) / k
		if c < len(f.PEs)%k {
			sizes[c]++
		}
	}
	arch := model.ClusterChain(sizes, 1, bus.SlotBytes, bus.ByteTime, bus.SlotOverhead)
	for i, n := range arch.Nodes {
		n.Name = fmt.Sprintf("PE%d", f.PEs[i].ID)
	}
	return arch, nil
}

// Build assembles the parsed file into a system: one node per @PE block
// (in file order, IDs 0..n-1 regardless of TGFF ids), one application
// named appName containing every task graph. Tasks run on every PE whose
// table lists their type; arcs become messages sized by the @COMMUN
// table. The result is validated.
func (f *File) Build(appName string, bus BusConfig) (*model.System, error) {
	arch, err := buildArch(f, bus)
	if err != nil {
		return nil, err
	}

	app := &model.Application{ID: 0, Name: appName}
	nextProc := model.ProcID(0)
	nextMsg := model.MsgID(0)
	for gi, gs := range f.Graphs {
		if gs.Period <= 0 {
			return nil, fmt.Errorf("tgff: task graph %d has no PERIOD", gs.ID)
		}
		deadline := gs.Deadline
		if deadline == 0 {
			deadline = gs.Period
		}
		gr := &model.Graph{
			ID:       model.GraphID(gi),
			Name:     fmt.Sprintf("TASK_GRAPH_%d", gs.ID),
			Period:   gs.Period,
			Deadline: deadline,
		}
		byName := map[string]model.ProcID{}
		for _, task := range gs.Tasks {
			wcet := map[model.NodeID]tm.Time{}
			for i, pe := range f.PEs {
				if t, ok := pe.Exec[task.Type]; ok {
					wcet[model.NodeID(i)] = t
				}
			}
			if len(wcet) == 0 {
				return nil, fmt.Errorf("tgff: task %q type %d appears in no @PE table", task.Name, task.Type)
			}
			p := &model.Process{ID: nextProc, Name: task.Name, WCET: wcet}
			nextProc++
			byName[task.Name] = p.ID
			gr.Procs = append(gr.Procs, p)
		}
		for _, arc := range gs.Arcs {
			src, okS := byName[arc.From]
			dst, okD := byName[arc.To]
			if !okS || !okD {
				return nil, fmt.Errorf("tgff: arc %q references unknown task", arc.Name)
			}
			bytes, ok := f.Commun[arc.Type]
			if !ok {
				return nil, fmt.Errorf("tgff: arc %q type %d not in any @COMMUN table", arc.Name, arc.Type)
			}
			gr.Msgs = append(gr.Msgs, &model.Message{
				ID: nextMsg, Name: arc.Name, Src: src, Dst: dst, Bytes: bytes,
			})
			nextMsg++
		}
		app.Graphs = append(app.Graphs, gr)
	}

	sys := &model.System{Arch: arch, Apps: []*model.Application{app}}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}
