package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"metadataflow/internal/memorymgr"
	"metadataflow/internal/plan"
)

// This file maps the server's typed errors onto the HTTP surface:
//
//	POST   /jobs               submit a job             201, 400, 403, 413, 429, 503
//	GET    /jobs/{id}          status + audit/explain   200, 404
//	GET    /jobs/{id}/progress per-branch live progress 200, 404
//	DELETE /jobs/{id}          cancel                   200, 404, 409
//	GET    /metrics            aggregated snapshot      200
//	GET    /watch              NDJSON telemetry stream  200
//	GET    /series             service mdf.series/v1    200
//	GET    /healthz            liveness + load          200
//
// Overload semantics: a full queue or an exhausted tenant quota answers
// 429 with a Retry-After hint (load shedding — the job is never admitted,
// so the service cannot be pushed past its memory budget); a quarantined
// tenant answers 403 (circuit broken — retrying immediately is pointless);
// draining answers 503 (shutting down — retry against a replica). Bodies
// larger than MaxBodyBytes answer 413 before any decoding happens, so a
// misbehaving client cannot balloon the daemon's heap.

// MaxBodyBytes bounds a submission body.
const MaxBodyBytes = 1 << 20

// retryAfterSec is the Retry-After hint for shed submissions.
const retryAfterSec = "1"

type errorBody struct {
	Error string `json:"error"`
}

// vetErrorBody is the 400 body for plan-vetting rejections: the error line
// plus every finding as a structured object, so clients can map diagnostics
// back to spec paths without parsing prose.
type vetErrorBody struct {
	Error    string         `json:"error"`
	Findings []plan.Finding `json:"findings"`
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /watch", s.handleWatch)
	mux.HandleFunc("GET /series", s.handleSeries)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON answers status with v as indented JSON, or 500 with an
// errorBody when v does not encode: the status line waits until the body is
// known.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding the response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(body, '\n')); err != nil {
		// The status line is already written; nothing useful remains to do.
		return
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes), &req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		var reqErr *RequestError
		var vet *VetError
		var quarantine *QuarantineError
		var quota *memorymgr.QuotaError
		switch {
		case errors.As(err, &vet):
			writeJSON(w, http.StatusBadRequest, vetErrorBody{Error: vet.Error(), Findings: vet.Findings})
		case errors.As(err, &reqErr):
			writeError(w, http.StatusBadRequest, err)
		case errors.As(err, &quarantine):
			writeError(w, http.StatusForbidden, err)
		case errors.As(err, &quota), errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", retryAfterSec)
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// decodeRequest decodes the one request object of a submission body, strictly:
// an unknown field fails, and so does anything but whitespace after the
// object, as trailing data after a spec document does (spec.Parse).
func decodeRequest(body io.Reader, req *JobRequest) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errors.New("service: trailing data after the request object")
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(strings.TrimSpace(r.PathValue("id")))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSpace(r.PathValue("id"))
	if err := s.Cancel(id); err != nil {
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrTerminal):
			writeError(w, http.StatusConflict, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	st, err := s.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out, err := s.MetricsJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(out); err != nil {
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Healthz())
}
