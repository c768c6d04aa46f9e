package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerBoundsSlowClients: the server `mdf serve` listens with must
// cut off a client that never finishes its request headers.
func TestHTTPServerBoundsSlowClients(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want a positive bound", srv.ReadHeaderTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("handler not installed")
	}
}
