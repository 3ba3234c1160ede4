package session

import (
	"bytes"
	"sync"
)

// MemStore is the in-memory Store: documents live only as long as the
// process. It keeps each document's canonical encoding and its journal
// lines rather than the document pointer, so Put/Append/Get have the
// same copy, format and re-validation semantics as the disk store and a
// round-trip bug cannot hide behind shared memory.
type MemStore struct {
	mu   sync.RWMutex
	docs map[string]memDoc
}

// memDoc is one stored session: the document's canonical encoding and
// the journal lines appended since. Append only ever extends journal, so
// a reader holding an earlier slice of it never sees a write.
type memDoc struct{ doc, journal []byte }

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{docs: map[string]memDoc{}}
}

// Put implements Store.
func (s *MemStore) Put(doc *Doc) error {
	var buf bytes.Buffer
	if err := EncodeDoc(&buf, doc); err != nil {
		return err
	}
	s.mu.Lock()
	s.docs[doc.ID] = memDoc{doc: buf.Bytes()}
	s.mu.Unlock()
	return nil
}

// Append implements Store.
func (s *MemStore) Append(id string, e *Entry) error {
	line, err := encodeEntry(e)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.docs[id]
	if !ok {
		return ErrNotFound
	}
	m.journal = append(m.journal, line...)
	s.docs[id] = m
	return nil
}

// Get implements Store.
func (s *MemStore) Get(id string) (*Doc, error) {
	s.mu.RLock()
	m, ok := s.docs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return DecodeJournal(m.doc, m.journal)
}

// Delete implements Store.
func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	delete(s.docs, id)
	s.mu.Unlock()
	return nil
}

// List implements Store.
func (s *MemStore) List() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.docs))
	for id := range s.docs {
		ids = append(ids, id)
	}
	return ids, nil
}
