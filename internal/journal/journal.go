// Package journal is an append-only write-ahead log of job lifecycle
// records. The service appends one record per lifecycle transition, of
// three kinds (admitted, started, terminal; a drained job's terminal record
// has state checkpointed), and replays the log on restart to rebuild
// admission state.
//
// On-disk format: a journal is a directory of segment files named
// seg-000001.wal, seg-000002.wal, ... Each segment is a sequence of
// frames with no header or footer:
//
//	frame := u32BE(len(payload)) u32BE(crc32IEEE(payload)) payload
//
// The payload is the record's canonical JSON encoding. Records carry a
// dense sequence number starting at 1, assigned by Append, so replay can
// detect dropped or reordered frames. Encoding is deterministic —
// encoding/json emits struct fields in declaration order and map keys
// sorted — so two runs appending the same record sequence produce
// byte-identical segment files, which the crash-restart oracle exploits
// to reconstruct the exact journal prefix that existed at a crash point.
//
// Rotation is atomic at frame boundaries: a frame is never split across
// segments, and a new segment is created with O_EXCL only after the
// previous one is synced and closed. A crash therefore leaves at most one
// torn frame, at the tail of the newest segment, and replay treats
// everything after the last intact frame as lost.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"metadataflow/internal/sim"
)

// Record kinds, one per job lifecycle transition the service journals.
const (
	KindAdmitted = "admitted"
	KindStarted  = "started"
	KindTerminal = "terminal"
)

// Record is one journaled lifecycle transition. Admitted records carry
// everything needed to re-admit the job verbatim (spec and fault-plan
// bytes, quota reservation, deadline); terminal records carry the full
// outcome — final state, counters the job contributed, and the metrics
// snapshot — so a recovered terminal job is indistinguishable from one
// that retired in-process. Fields irrelevant to a record's kind are
// zero and omitted from the encoding.
type Record struct {
	Seq    int64     `json:"seq"`
	Kind   string    `json:"kind"`
	Job    string    `json:"job"`
	Tenant string    `json:"tenant,omitempty"`
	TSec   sim.VTime `json:"tSec,omitempty"`

	// Admission payload.
	Priority     int             `json:"priority,omitempty"`
	DeadlineSec  sim.VTime       `json:"deadlineSec,omitempty"`
	ReserveBytes sim.Bytes       `json:"reserveBytes,omitempty"`
	SpecHash     string          `json:"specHash,omitempty"`
	Spec         json.RawMessage `json:"spec,omitempty"`
	Faults       json.RawMessage `json:"faults,omitempty"`

	// Terminal payload.
	State            string           `json:"state,omitempty"`
	Error            string           `json:"error,omitempty"`
	CompletionSec    sim.VTime        `json:"completionSec,omitempty"`
	Strikes          int              `json:"strikes,omitempty"`
	DeadlineExceeded bool             `json:"deadlineExceeded,omitempty"`
	Selections       map[string][]int `json:"selections,omitempty"`
	AuditLineage     []string         `json:"auditLineage,omitempty"`
	AuditBooks       []string         `json:"auditBooks,omitempty"`
	Snapshot         json.RawMessage  `json:"snapshot,omitempty"`
}

// Options configures a journal writer.
type Options struct {
	// NoSync skips the fsync after each append and rotation. Replay
	// tolerates torn tails either way; NoSync trades the durability of
	// the last few records for throughput (used by tests and the
	// crash-restart harness, where "durable" is a directory tree).
	NoSync bool
}

// segmentBytes is the on-disk segment size: the writer rotates to a new
// segment once appending the next frame would push the current one past it.
// A segment always holds at least one frame, so oversized records still land
// whole.
const segmentBytes = 256 << 10

// frameHeaderLen is the length+CRC prefix preceding every payload.
const frameHeaderLen = 8

// maxRecordBytes bounds a single record payload. Replay rejects frames
// claiming more as corrupt rather than allocating unbounded memory from
// a damaged length prefix.
const maxRecordBytes = 8 << 20

// Journal is an append-only writer over a segment directory. Open before
// appending; Close syncs and releases the current segment. A Journal is
// not safe for concurrent use — the service serialises appends under its
// own admission lock.
type Journal struct {
	dir     string
	opts    Options
	f       *os.File
	seg     int
	segSize int64
	nextSeq int64
	open    bool
}

// New prepares a journal writer rooted at dir. No I/O happens until Open.
func New(dir string, opts Options) *Journal {
	return &Journal{dir: dir, opts: opts}
}

// segmentName formats the nth segment's filename (1-based).
func segmentName(n int) string { return fmt.Sprintf("seg-%06d.wal", n) }

// segments lists dir's segment files in ascending order. A missing
// directory is an empty journal. Only a name segmentName formats is a
// segment: a stray that merely starts like one (seg-000001.wal.bak) is not
// replayed, truncated or appended to.
func segments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.wal", &n); err == nil && segmentName(n) == e.Name() {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// Open readies the journal for appends. An existing directory is scanned
// for its valid record prefix: the tail segment is truncated after the
// last intact frame — dropping torn tails and anything after a corrupt
// frame, which replay already refuses to trust — and appends continue
// the dense sequence from there. A fresh directory starts at seq 1.
func (j *Journal) Open() error {
	if j.open {
		return fmt.Errorf("journal: already open")
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return err
	}
	recs, corrupt := replayDir(j.dir)
	j.nextSeq = 1
	if n := len(recs); n > 0 {
		j.nextSeq = recs[n-1].Seq + 1
	}
	segs, err := segments(j.dir)
	if err != nil {
		return err
	}
	if corrupt != nil {
		// Truncate the corrupt segment at the bad frame and drop every
		// later segment: the valid prefix is the journal.
		if err := os.Truncate(filepath.Join(j.dir, corrupt.Segment), corrupt.Offset); err != nil {
			return err
		}
		keep := sort.SearchStrings(segs, corrupt.Segment)
		for _, s := range segs[keep+1:] {
			if err := os.Remove(filepath.Join(j.dir, s)); err != nil {
				return err
			}
		}
		segs = segs[:keep+1]
	}
	if len(segs) == 0 {
		j.seg = 1
		f, err := os.OpenFile(filepath.Join(j.dir, segmentName(1)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		j.f, j.segSize = f, 0
	} else {
		last := segs[len(segs)-1]
		fmt.Sscanf(last, "seg-%06d.wal", &j.seg)
		f, err := os.OpenFile(filepath.Join(j.dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		j.f, j.segSize = f, st.Size()
	}
	j.open = true
	return nil
}

// Append assigns rec the next dense sequence number, frames it, and
// writes it to the current segment, rotating first if the frame would
// overflow it. Returns the assigned sequence number.
func (j *Journal) Append(rec Record) (int64, error) {
	if !j.open {
		return 0, fmt.Errorf("journal: append on closed journal")
	}
	rec.Seq = j.nextSeq
	frame, err := EncodeFrame(rec)
	if err != nil {
		return 0, err
	}
	if j.segSize > 0 && j.segSize+int64(len(frame)) > segmentBytes {
		if err := j.rotate(); err != nil {
			return 0, err
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		return 0, err
	}
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return 0, err
		}
	}
	j.segSize += int64(len(frame))
	j.nextSeq++
	return rec.Seq, nil
}

// rotate seals the current segment and opens the next one. The old
// segment is synced before the new one is created, so a crash between
// the two leaves a clean frame boundary.
func (j *Journal) rotate() error {
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	j.seg++
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(j.seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	j.f, j.segSize = f, 0
	return nil
}

// Close syncs and closes the current segment. The journal can be
// re-opened afterwards; appends continue the sequence.
func (j *Journal) Close() error {
	if !j.open {
		return nil
	}
	j.open = false
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			j.f.Close()
			return err
		}
	}
	return j.f.Close()
}

// EncodeFrame returns the exact on-disk frame for rec: length prefix,
// CRC, and canonical JSON payload. Exposed so the crash-restart harness
// can construct torn-write tails byte-for-byte.
func EncodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	return frame, nil
}

// WriteAll writes a fresh journal at dir containing exactly recs with
// their sequence numbers preserved, using the same framing and rotation
// as a live writer. Because encoding is deterministic, WriteAll over a
// replayed prefix reproduces the original segment bytes — the
// crash-restart harness uses this to materialise the journal as of any
// record boundary. dir must not already contain segments.
func WriteAll(dir string, recs []Record, opts Options) error {
	segs, err := segments(dir)
	if err != nil {
		return err
	}
	if len(segs) > 0 {
		return fmt.Errorf("journal: WriteAll into non-empty journal %s", dir)
	}
	j := New(dir, opts)
	if err := j.Open(); err != nil {
		return err
	}
	for _, rec := range recs {
		want := rec.Seq
		got, err := j.Append(rec)
		if err != nil {
			j.Close()
			return err
		}
		if got != want {
			j.Close()
			return fmt.Errorf("journal: WriteAll seq %d, want %d (records must be a dense prefix)", got, want)
		}
	}
	return j.Close()
}
