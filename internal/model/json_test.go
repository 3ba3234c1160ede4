package model

import (
	"bytes"
	"strings"
	"testing"
)

func TestSystemJSONRoundTrip(t *testing.T) {
	sys, _ := twoNodeSystem(t)
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadSystem(&buf)
	if err != nil {
		t.Fatalf("ReadSystem: %v", err)
	}
	if len(got.Apps) != 1 || got.Apps[0].NumProcs() != 4 {
		t.Errorf("round trip lost data: %d apps", len(got.Apps))
	}
	if got.Arch.Buses[0].RoundLen() != sys.Arch.Buses[0].RoundLen() {
		t.Errorf("bus round length changed: %v != %v",
			got.Arch.Buses[0].RoundLen(), sys.Arch.Buses[0].RoundLen())
	}
	if got.Apps[0].Graphs[0].Procs[0].WCET[0] != 20 {
		t.Error("WCET table lost in round trip")
	}
}

func TestReadSystemRejectsInvalid(t *testing.T) {
	if _, err := ReadSystem(strings.NewReader(`{"arch": null, "apps": []}`)); err == nil {
		t.Error("nil architecture accepted")
	}
	if _, err := ReadSystem(strings.NewReader(`{bad json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadSystem(strings.NewReader(`{"unknown_field": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadSystem(strings.NewReader(overflowingHyperperiodJSON)); err == nil {
		t.Error("hyperperiod beyond tm.Infinity accepted")
	}
	if _, err := ReadSystem(strings.NewReader(negativeRoundJSON)); err == nil {
		t.Error("negative bus round accepted")
	}
}

// overflowingHyperperiodJSON is a system whose hyperperiod does not fit
// tm.Time: a base application of period 1000 beside one of period
// 4,611,686,018,427,391, coprime to it, so their LCM exceeds tm.Infinity.
const overflowingHyperperiodJSON = `{"arch":{"nodes":[{"id":0}],"bus":{"slot_order":[0],"slot_bytes":[8],"byte_time":1,"slot_overhead":2}},` +
	`"apps":[{"id":0,"graphs":[{"id":0,"period":1000,"deadline":1000,"procs":[{"id":0,"wcet":{"0":10}}],"msgs":[]}]},` +
	`{"id":1,"graphs":[{"id":1,"period":4611686018427391,"deadline":4611686018427391,"procs":[{"id":1,"wcet":{"0":10}}],"msgs":[]}]}]}`

// primePeriodsJSON is a system whose hyperperiod fits tm.Time but spans
// 2·10^12 TDMA slot occurrences: two nodes on a 20-unit round and two
// one-process applications with the prime periods 999,983 and 1,000,003.
const primePeriodsJSON = `{"arch":{"nodes":[{"id":0},{"id":1}],"bus":{"slot_order":[0,1],"slot_bytes":[8,8],"byte_time":1,"slot_overhead":2}},` +
	`"apps":[{"id":0,"graphs":[{"id":0,"period":999983,"deadline":999983,"procs":[{"id":0,"wcet":{"0":3,"1":3}}],"msgs":[]}]},` +
	`{"id":1,"graphs":[{"id":1,"period":1000003,"deadline":1000003,"procs":[{"id":1,"wcet":{"0":3,"1":3}}],"msgs":[]}]}]}`

// negativeRoundJSON is a system whose one slot's bytes × byte time
// overflows, so the bus round length is negative.
const negativeRoundJSON = `{"arch":{"nodes":[{"id":0}],"bus":{"slot_order":[0],"slot_bytes":[4611686018427387904],"byte_time":2,"slot_overhead":0}},"apps":[]}`

func TestApplicationJSONRoundTrip(t *testing.T) {
	sys, _ := twoNodeSystem(t)
	app := sys.Apps[0]
	var buf bytes.Buffer
	if err := app.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadApplication(&buf)
	if err != nil {
		t.Fatalf("ReadApplication: %v", err)
	}
	if got.NumProcs() != app.NumProcs() || got.NumMsgs() != app.NumMsgs() {
		t.Error("application round trip lost objects")
	}
}
