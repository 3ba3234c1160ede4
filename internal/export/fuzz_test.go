package export

import (
	"bytes"
	"strings"
	"testing"

	"incdes/internal/tm"
)

// FuzzDecodeBinary hardens the design-image parser: arbitrary input must
// never panic or allocate absurdly, and every accepted image must
// re-encode byte-identically.
func FuzzDecodeBinary(f *testing.F) {
	var buf bytes.Buffer
	d := &Design{Horizon: 100, RoundLen: 20}
	d.Nodes = []NodeTable{{Node: 0, Entries: []DispatchEntry{{Start: 0, End: 10, Proc: 1}}}}
	if err := d.EncodeBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("INCDSGN1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var back bytes.Buffer
		if err := got.EncodeBinary(&back); err != nil {
			t.Fatalf("accepted image failed to re-encode: %v", err)
		}
		if !bytes.Equal(back.Bytes(), data) {
			t.Fatalf("decode/encode not inverse (%d vs %d bytes)", back.Len(), len(data))
		}
	})
}

// FuzzReadDesign hardens the JSON reader against malformed documents.
func FuzzReadDesign(f *testing.F) {
	f.Add(`{"horizon":100,"round_len":20,"mapping":{},"nodes":null,"medl":null}`)
	f.Add(`{`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, data string) {
		d, err := ReadDesign(strings.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parses must serialize again.
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted design failed to serialize: %v", err)
		}
	})
}

// FuzzCheck hardens the schedule oracle against arbitrary design
// documents: whatever ReadDesign accepts, Check must return on without
// panicking, however large or inconsistent the horizon, rounds, slots
// and indices it carries.
func FuzzCheck(f *testing.F) {
	st := exportState(f)
	d, err := Build(st)
	if err != nil {
		f.Fatal(err)
	}
	for _, horizon := range []tm.Time{d.Horizon, 1 << 40} {
		d.Horizon = horizon
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add(`{"horizon":0,"round_len":20,"mapping":{},"nodes":[],"medl":[]}`)
	sys := st.System()
	f.Fuzz(func(t *testing.T, data string) {
		d, err := ReadDesign(strings.NewReader(data))
		if err != nil {
			return
		}
		Check(d, sys, sys.Apps...)
	})
}
