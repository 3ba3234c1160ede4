package session

import "errors"

// ErrNotFound is returned by stores (and the Manager) for unknown
// session IDs.
var ErrNotFound = errors.New("session: not found")

// Store persists session documents as a whole document plus a journal
// of the entries appended since it was written. A commit, a branch and a
// rollback each append one Entry, so what a write costs is the change,
// not the session's history. The whole document is written only when a
// session is opened and when loading it folds the journal in
// (compaction).
//
// Implementations must be safe for concurrent use and must not retain
// or alias what they are handed: Put and Append snapshot their argument
// before returning and Get returns a fresh copy every call, so a caller
// mutating its copy can never corrupt the stored one. Both built-in
// stores (memory, disk) keep the canonical JSON encoding of the document
// and one JSON line per entry, and load through DecodeJournal, which
// also re-validates every document on the way out.
type Store interface {
	// Put writes the document under doc.ID, replacing any previous
	// revision atomically, and drops the previous revision's journal.
	Put(doc *Doc) error
	// Append adds one entry to the journal of the stored document id.
	// It returns ErrNotFound, and writes nothing, when the store does
	// not hold id.
	Append(id string, e *Entry) error
	// Get returns the stored document with its journal applied, or
	// ErrNotFound.
	Get(id string) (*Doc, error)
	// Delete removes the document and its journal; deleting an absent ID
	// is not an error.
	Delete(id string) error
	// List returns the stored session IDs in unspecified order.
	List() ([]string, error)
}
