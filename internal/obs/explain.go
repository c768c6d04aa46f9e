package obs

import (
	"fmt"
	"io"
)

// This file renders the decision audit log as text (mdf run -explain): one
// line per decision in virtual-time order, with the scored candidates the
// decision weighed indented below it. The format is stable enough to diff
// two runs of the same seed.

// WriteDecisions renders the recorder's decision log as text.
func (r *Recorder) WriteDecisions(w io.Writer) error {
	decisions := r.Decisions()
	if len(decisions) == 0 {
		_, err := fmt.Fprintln(w, "(no decisions recorded; run with telemetry enabled)")
		return err
	}
	for _, d := range decisions {
		if err := writeDecision(w, d); err != nil {
			return err
		}
	}
	return nil
}

func writeDecision(w io.Writer, d Decision) error {
	where := "master"
	if d.Node != NodeMaster {
		where = fmt.Sprintf("node %d", d.Node)
	}
	line := fmt.Sprintf("[%10.2f] %-9s %-10s %s  %s", d.T, d.Component, d.Kind, where, d.Subject)
	if d.Detail != "" {
		line += "  (" + d.Detail + ")"
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, c := range d.Candidates {
		mark := " "
		if c.Chosen {
			mark = "*"
		}
		if _, err := fmt.Fprintf(w, "             %s %-28s score=%g\n", mark, c.Label, c.Score); err != nil {
			return err
		}
	}
	return nil
}
