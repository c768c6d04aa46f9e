// Package ckptstore is a content-addressed durable checkpoint store.
// Entries are keyed by the spec chain-prefix hash of the operator that
// produced the partition (internal/spec) plus the partition index, so
// the same intermediate result — across restarts, branches, or
// separate jobs — lands at the same key. The engine mirrors every
// checkpointed partition here and reads an entry back only when a node
// crash inside a run leans on a durable copy (Run.verifyCkpt): an entry
// that does not verify demotes the copy to lineage re-derivation. A job
// requeued after a service restart does not read the store; it re-executes
// from its journaled spec.
//
// Every entry is checksummed: the file is an 8-byte big-endian FNV-1a
// digest of the payload followed by the payload. Loads verify the
// digest and report any damage — torn writes, bit flips, truncation —
// as a miss, never as data: the engine falls back to lineage
// re-derivation exactly as it would for an absent checkpoint. Writes
// are atomic (temp file + rename), so a crash mid-Put leaves either the
// old entry or none.
package ckptstore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"metadataflow/internal/spec"
)

// Key addresses one durable partition: the chain-prefix hash of the
// producing operator and the partition index.
type Key struct {
	Chain spec.Hash
	Part  int
}

// filename is the entry's file name: chain hex, partition index.
func (k Key) filename() string { return fmt.Sprintf("%s-p%04d.ckpt", k.Chain, k.Part) }

func (k Key) String() string { return fmt.Sprintf("%s/p%d", k.Chain, k.Part) }

// MissError reports that an entry could not be loaded — absent or
// damaged. Callers treat both identically: re-derive from lineage.
type MissError struct {
	Key    Key
	Reason string
}

func (e *MissError) Error() string {
	return fmt.Sprintf("ckptstore: miss %s: %s", e.Key, e.Reason)
}

// checksumLen prefixes every entry file.
const checksumLen = 8

// digest is the store's FNV-1a payload checksum.
func digest(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload) // fnv's Write cannot fail
	return h.Sum64()
}

// Store is a checkpoint directory. Open creates the directory; Close
// releases the handle. Safe for the service's single-writer step loop;
// concurrent readers are fine because writes are atomic renames.
type Store struct {
	dir  string
	open bool
}

// New prepares a store rooted at dir. No I/O happens until Open.
func New(dir string) *Store { return &Store{dir: dir} }

// Open creates the store directory if needed.
func (s *Store) Open() error {
	if s.open {
		return fmt.Errorf("ckptstore: already open")
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	s.open = true
	return nil
}

// Close releases the store. Entries stay on disk.
func (s *Store) Close() error {
	s.open = false
	return nil
}

// Put durably writes payload at k, replacing any existing entry —
// including a damaged one, which is how a re-derived partition heals a
// corrupt checkpoint. The write is atomic: temp file, then rename.
func (s *Store) Put(k Key, payload []byte) error {
	if !s.open {
		return fmt.Errorf("ckptstore: put on closed store")
	}
	b := make([]byte, checksumLen+len(payload))
	binary.BigEndian.PutUint64(b[:checksumLen], digest(payload))
	copy(b[checksumLen:], payload)
	final := filepath.Join(s.dir, k.filename())
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// Get loads and verifies the entry at k. Absent, truncated, or
// checksum-failing entries return a *MissError; callers re-derive.
func (s *Store) Get(k Key) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, k.filename()))
	if os.IsNotExist(err) {
		return nil, &MissError{Key: k, Reason: "absent"}
	}
	if err != nil {
		return nil, &MissError{Key: k, Reason: err.Error()}
	}
	if len(b) < checksumLen {
		return nil, &MissError{Key: k, Reason: fmt.Sprintf("truncated: %d bytes", len(b))}
	}
	payload := b[checksumLen:]
	if got, want := digest(payload), binary.BigEndian.Uint64(b[:checksumLen]); got != want {
		return nil, &MissError{Key: k, Reason: fmt.Sprintf("checksum mismatch: %016x, want %016x", got, want)}
	}
	return payload, nil
}

// Keys lists every entry key in sorted order (chain hash, then
// partition), including damaged entries — damage surfaces on Get.
func (s *Store) Keys() ([]Key, error) {
	ents, err := os.ReadDir(s.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var keys []Key
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		var hex string
		var part int
		if _, err := fmt.Sscanf(e.Name(), "%16s-p%04d.ckpt", &hex, &part); err != nil {
			continue
		}
		var h spec.Hash
		if err := h.UnmarshalJSON([]byte(`"` + hex + `"`)); err != nil {
			continue
		}
		k := Key{Chain: h, Part: part}
		if k.filename() != e.Name() { // leftover temp files and strays
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Chain != keys[j].Chain {
			return keys[i].Chain < keys[j].Chain
		}
		return keys[i].Part < keys[j].Part
	})
	return keys, nil
}

// CorruptEntry flips one bit inside the payload of the entry at k — the
// load-time corruption injector behind faults.CkptFlip. bit is taken
// modulo the payload's bit width. Corrupting an absent entry is a no-op:
// the load will miss anyway.
func (s *Store) CorruptEntry(k Key, bit int) error {
	if bit < 0 {
		return fmt.Errorf("ckptstore: CorruptEntry bit %d", bit)
	}
	path := filepath.Join(s.dir, k.filename())
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(b) <= checksumLen {
		return nil // already unreadable
	}
	i := checksumLen*8 + bit%((len(b)-checksumLen)*8)
	b[i/8] ^= 1 << (i % 8)
	return os.WriteFile(path, b, 0o644)
}

// CorruptNth is CorruptEntry on the idx-th entry in Keys() order — the
// bit-flip fault injector for the crash-restart oracle.
func (s *Store) CorruptNth(idx, bit int) error {
	keys, err := s.Keys()
	if err != nil {
		return err
	}
	if idx < 0 || idx >= len(keys) {
		return fmt.Errorf("ckptstore: CorruptNth %d of %d entries", idx, len(keys))
	}
	return s.CorruptEntry(keys[idx], bit)
}
