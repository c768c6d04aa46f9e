package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// ReproSchema is the self-describing schema tag of repro files. Additive
// changes keep v1; removing or renaming a field bumps the version.
const ReproSchema = "mdf.chaos-repro/v1"

// Repro is a self-contained, replayable chaos failure: the violated oracle
// and the complete (shrunken) trial spec, fault plan included. mdf chaos
// -replay re-runs it and re-applies the oracle; mdf run -faults accepts the
// file too (it extracts the embedded plan and runs the oracle battery), so
// a checked-in repro doubles as a regression test.
type Repro struct {
	Schema string    `json:"schema"`
	Oracle string    `json:"oracle"`
	Detail string    `json:"detail"`
	Trial  TrialSpec `json:"trial"`
}

// WriteJSON serialises the repro with stable field order and indentation.
func (r *Repro) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseRepro decodes and validates a repro file.
func ParseRepro(data []byte) (*Repro, error) {
	var r Repro
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("chaos: bad repro file: %w", err)
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("chaos: bad repro file: trailing data after the repro")
	}
	if r.Schema != ReproSchema {
		return nil, fmt.Errorf("chaos: repro schema %q, want %q", r.Schema, ReproSchema)
	}
	if err := r.Trial.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: repro trial invalid: %w", err)
	}
	return &r, nil
}

// IsRepro reports whether data looks like a chaos repro file (as opposed to
// a bare fault plan), so mdf run -faults can accept both formats.
func IsRepro(data []byte) bool {
	var probe struct {
		Schema string `json:"schema"`
	}
	return json.Unmarshal(data, &probe) == nil && probe.Schema == ReproSchema
}

// Replay re-runs a repro's trial and re-applies its oracle (or the full
// battery when the repro does not name one). It returns the violations
// observed; an empty slice means the failure no longer reproduces.
func Replay(r *Repro) ([]Violation, error) {
	res, err := RunTrial(r.Trial, r.Oracle)
	if err != nil {
		return nil, err
	}
	return res.Violations, nil
}
