package service

import "testing"

// The external tests import internal/chaos, which imports this package, so
// they reach the in-package test sequences through these. Each runs its
// sequence on a fresh durable server rooted at dir and returns it, with
// every job terminal and its step loop running, for the caller to Close,
// together with the configuration it was built from, defaults filled in.

// MixedSequence runs runMixedSequence on a server built from mixedConfig.
func MixedSequence(t *testing.T, dir string) (*Server, Config) {
	s := durableServer(t, mixedConfig(), dir)
	runMixedSequence(t, s)
	return s, s.cfg
}

// Session runs the session of TestSessionGoldenAcrossCommits.
func Session(t *testing.T, dir string) (*Server, Config) {
	s := durableServer(t, Config{}, dir)
	runSession(t, s)
	go s.loop()
	return s, s.cfg
}

func durableServer(t *testing.T, cfg Config, dir string) *Server {
	t.Helper()
	cfg.StateDir, cfg.JournalNoSync = dir, true
	s := newServer(cfg)
	if err := s.openState(); err != nil {
		t.Fatal(err)
	}
	return s
}
