package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"

	"incdes/internal/future"
	"incdes/internal/metrics"
	"incdes/internal/model"
	"incdes/internal/sched"
)

// DocSchemaVersion identifies the JSON layout of a persisted session
// document. Decoders refuse documents written by a newer schema.
const DocSchemaVersion = 1

// RootVersion is the ID of every session's root version: the opened base
// system, scheduled and frozen, before any commit.
const RootVersion = 0

// noParent marks the root version's parent slot.
const noParent = -1

// MainBranch is the branch every session starts with.
const MainBranch = "main"

// branchNameRe limits branch names to path- and query-safe tokens.
var branchNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// VersionDoc is one version of a session: the root (ID 0, no commit
// payload) or one committed application with everything needed to replay
// its placement deterministically.
type VersionDoc struct {
	ID     int `json:"id"`
	Parent int `json:"parent"` // -1 for the root

	// Commit payload; empty on the root version.
	App         *model.Application `json:"app,omitempty"`
	Mapping     model.Mapping      `json:"mapping,omitempty"`
	Hints       *sched.Hints       `json:"hints,omitempty"` // nil when the solution pinned no start offset
	Strategy    string             `json:"strategy,omitempty"`
	Evaluations int                `json:"evaluations,omitempty"`

	// Report is the metric evaluation of this version's composite
	// design (the root carries the base system's score).
	Report metrics.Report `json:"report"`

	// Fingerprint is the hex SHA-256 of the composite schedule state's
	// canonical serialization (sched.State.Fingerprint). Replay verifies
	// against it: a version that no longer reproduces its fingerprint is
	// reported as corrupt rather than silently re-scored.
	Fingerprint string `json:"fingerprint"`
}

// Doc is the complete persisted form of a session: everything a fresh
// process needs to rematerialize any version by deterministic replay.
type Doc struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`

	// System is the base system as opened: the architecture plus the
	// applications frozen before version 0.
	System *model.System `json:"system"`

	// Profile pins the future-application characterization for the whole
	// session, so every version is scored against the same objective and
	// version metrics stay comparable.
	Profile *future.Profile `json:"profile"`

	// Versions is the append-only version tree in creation order;
	// Versions[i].ID == i and every parent precedes its children.
	Versions []*VersionDoc `json:"versions"`

	// Branches maps branch names to their head version. Rollback moves a
	// head back along its ancestor chain; versions no longer reachable
	// from any branch stay in the tree (they remain diffable) but are not
	// part of any surviving commit chain.
	Branches map[string]int `json:"branches"`
}

// EncodeDoc serializes the document as indented JSON.
func EncodeDoc(w io.Writer, d *Doc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("session: encode doc: %w", err)
	}
	return nil
}

// DecodeDoc parses and validates a session document: DecodeJournal with
// an empty journal. Unknown fields are rejected so schema drift surfaces
// as an error, not silent data loss.
func DecodeDoc(r io.Reader) (*Doc, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("session: decode doc: %w", err)
	}
	return DecodeJournal(data, nil)
}

// Validate checks the document's structural invariants. It is the full
// static check — replay (Session.Verify) additionally proves that every
// surviving chain reproduces its recorded fingerprints.
func (d *Doc) Validate() error {
	if d.SchemaVersion > DocSchemaVersion {
		return fmt.Errorf("session: doc schema %d is newer than supported %d", d.SchemaVersion, DocSchemaVersion)
	}
	if d.SchemaVersion <= 0 {
		return fmt.Errorf("session: doc has no schema version")
	}
	if d.ID == "" {
		return fmt.Errorf("session: doc has no id")
	}
	if d.System == nil {
		return fmt.Errorf("session: doc %s has no system", d.ID)
	}
	if err := d.System.Validate(); err != nil {
		return fmt.Errorf("session: doc %s: %w", d.ID, err)
	}
	if d.Profile == nil {
		return fmt.Errorf("session: doc %s has no future profile", d.ID)
	}
	if err := d.Profile.Validate(); err != nil {
		return fmt.Errorf("session: doc %s: %w", d.ID, err)
	}
	if len(d.Versions) == 0 {
		return fmt.Errorf("session: doc %s has no versions", d.ID)
	}
	for i, v := range d.Versions {
		if v == nil {
			return fmt.Errorf("session: doc %s: version %d is null", d.ID, i)
		}
		if v.ID != i {
			return fmt.Errorf("session: doc %s: version at index %d has id %d", d.ID, i, v.ID)
		}
		if v.Fingerprint == "" {
			return fmt.Errorf("session: doc %s: version %d has no fingerprint", d.ID, i)
		}
		if i == RootVersion {
			if v.Parent != noParent || v.App != nil {
				return fmt.Errorf("session: doc %s: root version carries a commit", d.ID)
			}
			continue
		}
		if v.Parent < 0 || v.Parent >= i {
			return fmt.Errorf("session: doc %s: version %d has parent %d outside [0,%d)", d.ID, i, v.Parent, i)
		}
		if v.App == nil {
			return fmt.Errorf("session: doc %s: version %d has no application", d.ID, i)
		}
		if err := v.App.Validate(d.System.Arch); err != nil {
			return fmt.Errorf("session: doc %s: version %d: %w", d.ID, i, err)
		}
		for _, g := range v.App.Graphs {
			for _, p := range g.Procs {
				if _, ok := v.Mapping[p.ID]; !ok {
					return fmt.Errorf("session: doc %s: version %d mapping misses process %d", d.ID, i, p.ID)
				}
			}
		}
	}
	if len(d.Branches) == 0 {
		return fmt.Errorf("session: doc %s has no branches", d.ID)
	}
	if _, ok := d.Branches[MainBranch]; !ok {
		return fmt.Errorf("session: doc %s has no %q branch", d.ID, MainBranch)
	}
	for name, head := range d.Branches {
		if !branchNameRe.MatchString(name) {
			return fmt.Errorf("session: doc %s: invalid branch name %q", d.ID, name)
		}
		if head < 0 || head >= len(d.Versions) {
			return fmt.Errorf("session: doc %s: branch %q points at missing version %d", d.ID, name, head)
		}
	}
	return nil
}

// Clone deep-copies the document through its canonical encoding. Stores
// hand out clones so callers can never alias a live session's state.
func (d *Doc) Clone() (*Doc, error) {
	var buf bytes.Buffer
	if err := EncodeDoc(&buf, d); err != nil {
		return nil, err
	}
	return DecodeDoc(&buf)
}
