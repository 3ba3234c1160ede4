package session

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

// idRe limits session IDs to file-name-safe tokens; the disk store
// enforces it so an ID can never escape its directory.
var idRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// DiskStore persists each session as two files under a directory:
// <id>.json, the canonical document, and <id>.journal, the entries
// appended since, one JSON line each (the format MemStore keeps in
// memory). Put writes the document atomically (temp file + rename, so a
// crash mid-write never leaves a truncated document behind) and then
// removes the journal; Append adds one line to the journal. It is the
// durable Store: a restarted daemon reopens its sessions from here and
// rematerializes schedule states by replay.
//
// The crash rules follow from that order. A journal whose last line has
// no newline is a torn append and loads with its complete lines. A crash
// between the rename and the journal's removal leaves a compacted
// document with its old journal, whose entries the document already
// holds (DecodeJournal skips them). A session with no journal is a
// document alone, the form every session had before journals.
type DiskStore struct {
	dir string

	// mu orders Append against Put, Delete and Get, so an append never
	// lands in a journal Put is dropping, never recreates one Delete
	// removed, and Get never pairs a document with the wrong journal.
	mu sync.Mutex
}

// NewDiskStore opens (creating if needed) the store directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("session: store dir %s: %w", dir, err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *DiskStore) Dir() string { return s.dir }

// paths returns the document and journal paths of a session.
func (s *DiskStore) paths(id string) (doc, journal string, err error) {
	if !idRe.MatchString(id) {
		return "", "", fmt.Errorf("session: invalid session id %q", id)
	}
	base := filepath.Join(s.dir, id)
	return base + ".json", base + ".journal", nil
}

// Put implements Store: the document is assembled in a temporary file in
// the store directory and renamed over the destination only after a
// complete write; then the journal it replaces is removed.
func (s *DiskStore) Put(doc *Doc) error {
	path, journal, err := s.paths(doc.ID)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, doc.ID+".tmp-*")
	if err != nil {
		return fmt.Errorf("session: writing %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := EncodeDoc(tmp, doc); err != nil {
		tmp.Close()
		return fmt.Errorf("session: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("session: writing %s: %w", path, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("session: writing %s: %w", path, err)
	}
	return removeIfExists(journal)
}

// Append implements Store: one line is appended to the journal. A failed
// write is cut back off, so the next append starts on a line boundary.
func (s *DiskStore) Append(id string, e *Entry) error {
	path, journal, err := s.paths(id)
	if err != nil {
		return err
	}
	line, err := encodeEntry(e)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return ErrNotFound
	} else if err != nil {
		return fmt.Errorf("session: appending to %s: %w", journal, err)
	}
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("session: appending to %s: %w", journal, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		if _, err = f.Write(line); err != nil {
			_ = f.Truncate(size) // best effort: the write error is what is reported
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("session: appending to %s: %w", journal, err)
	}
	return nil
}

// Get implements Store.
func (s *DiskStore) Get(id string) (*Doc, error) {
	path, journal, err := s.paths(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	doc, err := os.ReadFile(path)
	var entries []byte
	if err == nil {
		entries, err = os.ReadFile(journal)
		if errors.Is(err, fs.ErrNotExist) {
			entries, err = nil, nil
		}
	}
	s.mu.Unlock()
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("session: reading session %s: %w", id, err)
	}
	d, err := DecodeJournal(doc, entries)
	if err != nil {
		return nil, fmt.Errorf("session: reading %s: %w", path, err)
	}
	return d, nil
}

// Delete implements Store: the document and its journal.
func (s *DiskStore) Delete(id string) error {
	path, journal, err := s.paths(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := removeIfExists(path); err != nil {
		return err
	}
	return removeIfExists(journal)
}

// removeIfExists removes a file; a file that is not there is not an
// error.
func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("session: removing %s: %w", path, err)
	}
	return nil
}

// List implements Store: every *.json entry in the directory, by name.
// Journals and temporary files are not listed.
func (s *DiskStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("session: listing %s: %w", s.dir, err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if idRe.MatchString(id) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}
