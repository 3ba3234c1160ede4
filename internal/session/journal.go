package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Entry is one journal record: everything a commit, a branch or a
// rollback changes in a session document. A commit adds one version and
// moves its branch to it; a branch or a rollback only sets a head.
type Entry struct {
	// Version is the version a commit adds; nil for a branch or a
	// rollback. Its ID must be the document's version count.
	Version *VersionDoc `json:"version,omitempty"`
	// Branch is set to point at version Head.
	Branch string `json:"branch"`
	Head   int    `json:"head"`
}

// encodeEntry returns the entry's journal line: its JSON encoding and a
// newline. Encoding snapshots the entry, so a store holding the line
// never aliases the caller's entry or its version.
func encodeEntry(e *Entry) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("session: encode journal entry: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeJournal assembles a stored session from its document's encoding
// and its journal, the entries appended since the document was written,
// one JSON line each. A last line without its newline is a torn append
// and is ignored. Every complete line is decoded with unknown fields
// rejected and applied in order, and the assembled document is validated
// as DecodeDoc validates. Both built-in stores load through it.
func DecodeJournal(doc, journal []byte) (*Doc, error) {
	d := new(Doc)
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(d); err != nil {
		return nil, fmt.Errorf("session: decode doc: %w", err)
	}
	journal = journal[:bytes.LastIndexByte(journal, '\n')+1]
	for line := 1; len(journal) > 0; line++ {
		n := bytes.IndexByte(journal, '\n')
		var e Entry
		dec = json.NewDecoder(bytes.NewReader(journal[:n]))
		dec.DisallowUnknownFields()
		err := dec.Decode(&e)
		if err == nil {
			if _, tail := dec.Token(); tail != io.EOF {
				err = errors.New("trailing data after the entry")
			}
		}
		if err == nil {
			err = d.apply(&e)
		}
		if err != nil {
			return nil, fmt.Errorf("session: doc %s: journal line %d: %w", d.ID, line, err)
		}
		journal = journal[n+1:]
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// apply applies one journal entry: its version, if any, then its branch
// head. A version the document already holds with identical canonical
// bytes is skipped: that is a journal left behind by a crash between
// writing a compacted document and removing the journal, and replaying
// its head assignments in order ends where the compacted document is.
func (d *Doc) apply(e *Entry) error {
	if v := e.Version; v != nil {
		switch {
		case v.ID == len(d.Versions):
			d.Versions = append(d.Versions, v)
		case v.ID >= 0 && v.ID < len(d.Versions) && sameVersion(d.Versions[v.ID], v):
			// Already held: skip it.
		default:
			return fmt.Errorf("version %d does not extend the %d versions held", v.ID, len(d.Versions))
		}
	}
	if d.Branches == nil {
		d.Branches = map[string]int{}
	}
	d.Branches[e.Branch] = e.Head
	return nil
}

// sameVersion reports whether two versions have identical canonical
// encodings.
func sameVersion(a, b *VersionDoc) bool {
	ea, err := json.Marshal(a)
	if err != nil {
		return false
	}
	eb, err := json.Marshal(b)
	return err == nil && bytes.Equal(ea, eb)
}
