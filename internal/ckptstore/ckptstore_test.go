package ckptstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"metadataflow/internal/spec"
)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s := New(dir)
	if err := s.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
	k := Key{Chain: spec.Hash(0xdeadbeefcafe0123), Part: 2}
	payload := []byte("rows: 1.5\x1f2.5\x1f")
	if err := s.Put(k, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
}

func TestGetAbsentIsMiss(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
	_, err := s.Get(Key{Chain: 1, Part: 0})
	if !errors.As(err, new(*MissError)) {
		t.Fatalf("absent Get error %v, want miss", err)
	}
}

func TestCorruptionIsMissAndPutHeals(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
	k := Key{Chain: spec.Hash(42), Part: 0}
	payload := []byte("some checkpoint payload bytes")
	if err := s.Put(k, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.CorruptNth(0, 13); err != nil {
		t.Fatalf("CorruptNth: %v", err)
	}
	if _, err := s.Get(k); !errors.As(err, new(*MissError)) {
		t.Fatalf("corrupt Get error %v, want miss", err)
	}
	// A re-derived partition overwrites the damaged entry.
	if err := s.Put(k, payload); err != nil {
		t.Fatalf("Put over corrupt: %v", err)
	}
	if got, err := s.Get(k); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("healed Get = %q, %v", got, err)
	}
}

func TestTruncatedEntryIsMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	s := openStore(t, dir)
	k := Key{Chain: spec.Hash(7), Part: 1}
	if err := s.Put(k, []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Torn write: the file holds only part of the checksum header.
	path := filepath.Join(dir, k.filename())
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k); !errors.As(err, new(*MissError)) {
		t.Fatalf("truncated Get error %v, want miss", err)
	}
}

func TestKeysSortedAndSkipsStrays(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	s := openStore(t, dir)
	want := []Key{
		{Chain: spec.Hash(0x10), Part: 0},
		{Chain: spec.Hash(0x10), Part: 3},
		{Chain: spec.Hash(0xff), Part: 1},
	}
	// Put in shuffled order; Keys must come back sorted.
	for _, i := range []int{2, 0, 1} {
		if err := s.Put(want[i], []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for _, stray := range []string{"notes.txt", want[0].filename() + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("y"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEmptyPayload(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "ckpt"))
	k := Key{Chain: spec.Hash(3), Part: 0}
	if err := s.Put(k, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(k)
	if err != nil || len(got) != 0 {
		t.Fatalf("Get = %q, %v", got, err)
	}
}
