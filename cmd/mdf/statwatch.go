package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"metadataflow/internal/service"
)

// watchLog is one parsed /watch capture: the service's header line, then
// one service.WatchEvent per line.
type watchLog struct {
	bucketSec float64
	events    []service.WatchEvent
}

// parseWatch parses a captured /watch stream. A malformed line or a
// sequence gap inside the log is a hard error — the capture itself is
// damaged, which is different from the cross-log comparison failing.
func parseWatch(a artifact) (*watchLog, error) {
	sc := bufio.NewScanner(bytes.NewReader(a.raw))
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	sc.Scan() // readArtifact decoded this line to find the schema
	var hdr service.WatchHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("%s: bad watch header: %w", a.path, err)
	}
	log := &watchLog{bucketSec: hdr.BucketSec}
	line := 1
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev service.WatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s:%d: bad watch event: %w", a.path, line, err)
		}
		if want := len(log.events) + 1; ev.Seq != want {
			return nil, fmt.Errorf("%s:%d: seq %d, want dense %d", a.path, line, ev.Seq, want)
		}
		log.events = append(log.events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", a.path, err)
	}
	return log, nil
}

// lifecycleCounts builds the multiset of lifecycle transitions in a log,
// each rendered as a comparable string. Bucket events are excluded from the
// recovery check on purpose: gauge bucket replays are produced by live
// runs, so a restarted service's /watch log carries only the recovered
// lifecycle history — the buckets streamed before the crash are
// legitimately gone.
func lifecycleCounts(log *watchLog) map[string]int {
	counts := make(map[string]int)
	for _, ev := range log.events {
		if ev.Kind == "lifecycle" {
			counts[fmt.Sprintf("%s %s/%s state=%s t=%g", ev.Tenant, ev.Job, ev.Kind, ev.State, ev.TSec)]++
		}
	}
	return counts
}

// watchDiff compares a pre-crash /watch capture against a post-recovery
// one. Every lifecycle transition the clients saw before the crash must
// reappear after recovery (as a multiset — duplicates from retries count);
// anything missing means the restart silently lost job history. Extra
// events in the current log are fine: recovery re-executes incomplete
// jobs, which emits new transitions.
func watchDiff(docs [2]artifact, stdout, stderr io.Writer) int {
	var logs [2]*watchLog
	for i, a := range docs {
		var err error
		if logs[i], err = parseWatch(a); err != nil {
			return fail(stderr, usageErrorf("%v", err))
		}
	}
	base, cur := logs[0], logs[1]
	if base.bucketSec != cur.bucketSec {
		return fail(stderr, usageErrorf("watch bucket width changed across restart: %g vs %g", base.bucketSec, cur.bucketSec))
	}
	baseCounts := lifecycleCounts(base)
	curCounts := lifecycleCounts(cur)
	var missing []string
	lost := 0
	for key, n := range baseCounts {
		if short := n - curCounts[key]; short > 0 {
			lost += short
			missing = append(missing, fmt.Sprintf("%s (x%d)", key, short))
		}
	}
	sort.Strings(missing)
	fmt.Fprintf(stdout, "watch logs: %d events pre-crash, %d post-recovery; %d lifecycle transitions checked\n",
		len(base.events), len(cur.events), len(baseCounts))
	if lost > 0 {
		for _, m := range missing {
			fmt.Fprintf(stdout, "LOST %s\n", m)
		}
		fmt.Fprintf(stderr, "mdf stat: recovery lost %d lifecycle event(s) across the restart boundary\n", lost)
		return exitFailed
	}
	fmt.Fprintln(stdout, "recovery preserved all pre-crash lifecycle events")
	return exitOK
}
