package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metadataflow/internal/sim"
)

// sampleRecords builds a small deterministic lifecycle sequence.
func sampleRecords(n int) []Record {
	kinds := []string{KindAdmitted, KindStarted, KindTerminal}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Kind:   kinds[i%len(kinds)],
			Job:    "job-0001",
			Tenant: "acme",
			TSec:   sim.VTime(i) * 0.5,
			Spec:   json.RawMessage(`{"name":"t"}`),
		}
	}
	return recs
}

// largeRecords is sampleRecords with specs of about 40 KiB each, so a
// handful of them fill a segment and appending them rotates.
func largeRecords(n int) []Record {
	recs := sampleRecords(n)
	spec := json.RawMessage(`{"name":"t","pad":"` + strings.Repeat("x", 40<<10) + `"}`)
	for i := range recs {
		recs[i].Spec = spec
	}
	return recs
}

// appendAll opens a journal at dir, appends recs, and closes it.
func appendAll(t *testing.T, dir string, recs []Record, opts Options) {
	t.Helper()
	j := New(dir, opts)
	if err := j.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, rec := range recs {
		seq, err := j.Append(rec)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != int64(i+1) {
			t.Fatalf("Append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// readDir flattens a journal directory to (filename, bytes) pairs.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	recs := sampleRecords(12)
	appendAll(t, dir, recs, Options{})
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("Replay: %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		if rec.Seq != int64(i+1) || rec.Kind != recs[i].Kind || rec.TSec != recs[i].TSec {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
	}
}

func TestDeterministicBytes(t *testing.T) {
	recs := largeRecords(20)
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	appendAll(t, dirA, recs, Options{})
	appendAll(t, dirB, recs, Options{})
	a, b := readDir(t, dirA), readDir(t, dirB)
	if len(a) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("segment counts differ: %d vs %d", len(a), len(b))
	}
	for name, ab := range a {
		if !bytes.Equal(ab, b[name]) {
			t.Fatalf("segment %s differs between identical runs", name)
		}
	}
}

func TestWriteAllReproducesPrefix(t *testing.T) {
	recs := largeRecords(15)
	full := filepath.Join(t.TempDir(), "full")
	appendAll(t, full, recs, Options{})
	replayed, err := Replay(full)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for _, k := range []int{0, 1, 7, len(replayed)} {
		dir := filepath.Join(t.TempDir(), "prefix")
		if err := WriteAll(dir, replayed[:k], Options{}); err != nil {
			t.Fatalf("WriteAll k=%d: %v", k, err)
		}
		got, err := Replay(dir)
		if err != nil {
			t.Fatalf("Replay k=%d: %v", k, err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: %d records", k, len(got))
		}
		// The prefix bytes must match the full journal's leading bytes
		// segment-for-segment (the last prefix segment may be shorter).
		fullSegs, prefSegs := readDir(t, full), readDir(t, dir)
		for name, pb := range prefSegs {
			fb, ok := fullSegs[name]
			if !ok {
				t.Fatalf("k=%d: segment %s absent from full journal", k, name)
			}
			if !bytes.HasPrefix(fb, pb) {
				t.Fatalf("k=%d: segment %s is not a byte prefix of the original", k, name)
			}
		}
	}
}

func TestReplayTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	appendAll(t, dir, sampleRecords(5), Options{})
	recs, err := Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	frame, err := EncodeFrame(Record{Seq: 6, Kind: KindStarted, Job: "job-0002"})
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	for _, torn := range []int{1, frameHeaderLen - 1, frameHeaderLen + 3, len(frame) - 1} {
		d := filepath.Join(t.TempDir(), "torn")
		if err := WriteAll(d, recs, Options{}); err != nil {
			t.Fatalf("WriteAll: %v", err)
		}
		if err := AppendRaw(d, frame[:torn]); err != nil {
			t.Fatalf("AppendRaw: %v", err)
		}
		got, err := Replay(d)
		if len(got) != len(recs) {
			t.Fatalf("torn=%d: %d records, want %d", torn, len(got), len(recs))
		}
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("torn=%d: error %v, want *CorruptionError", torn, err)
		}
		if ce.Record != int64(len(recs)+1) {
			t.Fatalf("torn=%d: corruption at record %d, want %d", torn, ce.Record, len(recs)+1)
		}
		// Re-opening truncates the torn tail and continues the sequence.
		j := New(d, Options{})
		if err := j.Open(); err != nil {
			t.Fatalf("torn=%d: Open: %v", torn, err)
		}
		seq, err := j.Append(Record{Kind: KindTerminal, Job: "job-0001"})
		if err != nil || seq != int64(len(recs)+1) {
			t.Fatalf("torn=%d: Append after reopen: seq %d err %v", torn, seq, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if got, err := Replay(d); err != nil || len(got) != len(recs)+1 {
			t.Fatalf("torn=%d: replay after heal: %d records, err %v", torn, len(got), err)
		}
	}
}

func TestReplayBitFlip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	recs := sampleRecords(8)
	appendAll(t, dir, recs, Options{})
	if err := FlipBit(dir, 3, 11); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	got, err := Replay(dir)
	if len(got) != 3 {
		t.Fatalf("prefix %d records, want 3", len(got))
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v, want *CorruptionError", err)
	}
	if ce.Record != 4 {
		t.Fatalf("corruption at record %d, want 4", ce.Record)
	}
	// Open keeps the valid prefix only.
	j := New(dir, Options{})
	if err := j.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, err := Replay(dir); err != nil || len(got) != 3 {
		t.Fatalf("after Open: %d records, err %v", len(got), err)
	}
}

func TestReplayBadLengthPrefix(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	appendAll(t, dir, sampleRecords(2), Options{})
	// A frame claiming an absurd payload length must be rejected, not
	// allocated.
	if err := AppendRaw(dir, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err != nil {
		t.Fatalf("AppendRaw: %v", err)
	}
	got, err := Replay(dir)
	if len(got) != 2 {
		t.Fatalf("%d records, want 2", len(got))
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.Reason == "" {
		t.Fatalf("error %v, want *CorruptionError with reason", err)
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	got, err := Replay(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing dir: %d records, err %v", len(got), err)
	}
}

func TestCorruptionErrorNamesOffset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	appendAll(t, dir, sampleRecords(4), Options{})
	// The offset must point at the third frame: the sum of the first two
	// frame lengths as written (seqs assigned).
	written, err := Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	want := int64(0)
	for _, rec := range written[:2] {
		fr, err := EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(fr))
	}
	if err := FlipBit(dir, 2, 0); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	_, err = Replay(dir)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v", err)
	}
	if ce.Offset != want || ce.Segment != "seg-000001.wal" {
		t.Fatalf("corruption at %s+%d, want seg-000001.wal+%d", ce.Segment, ce.Offset, want)
	}
}

// TestOnlyExactSegmentNamesAreSegments: a file beside an intact journal whose
// name only starts like a segment's — a byte copy seg-000001.wal.bak — is not
// part of the journal. Replay does not read it, and Open neither truncates it
// nor appends to it.
func TestOnlyExactSegmentNamesAreSegments(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords(4)
	appendAll(t, dir, recs[:3], Options{NoSync: true})
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	bak := seg + ".bak"
	if err := os.WriteFile(bak, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := Replay(dir); err != nil || len(got) != 3 {
		t.Fatalf("replay beside a backup: %d records, err %v; want 3, nil", len(got), err)
	}
	j := New(dir, Options{NoSync: true})
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(recs[3]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(bak); err != nil || !bytes.Equal(after, b) {
		t.Errorf("the backup changed: %d bytes, was %d (err %v)", len(after), len(b), err)
	}
	if got, err := Replay(dir); err != nil || len(got) != 4 {
		t.Errorf("replay after the append: %d records, err %v; want 4, nil", len(got), err)
	}
}
