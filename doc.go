// Package incdes reproduces "An Approach to Incremental Design of
// Distributed Embedded Systems" (Pop, Eles, Pop, Peng — DAC 2001): mapping
// and static cyclic scheduling of hard real-time process graphs onto
// TTP-based distributed architectures, inside an incremental design
// process where existing applications are frozen and future applications
// are anticipated through the paper's two design criteria.
//
// The implementation lives under internal/: see internal/core for the
// mapping strategies (AH, MH, SA), internal/sched for the static cyclic
// scheduler, internal/ttp for the TDMA bus model, internal/metrics for the
// design criteria, and internal/eval for the experiment harness. The
// executables cmd/incmap and cmd/incbench and the programs under examples/
// are the entry points; cmd/incbench regenerates the paper's figures, and
// bench_test.go times the strategies and their substrates.
package incdes
