package main

import (
	"strings"
	"testing"
)

const watchHeaderLine = `{"schema":"mdf.watch/v1","bucketSec":10}`

// watchPre is a capture taken before a crash: two jobs admitted, one
// finished (with a retry along the way), one still running, plus a bucket
// event from the finished job's gauge replay.
const watchPre = watchHeaderLine + `
{"seq":1,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"queued","tSec":0}
{"seq":2,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"running","tSec":0}
{"seq":3,"kind":"lifecycle","job":"job-0002","tenant":"beta","state":"queued","tSec":0}
{"seq":4,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"retried","tSec":4.5}
{"seq":5,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"done","tSec":9.25}
{"seq":6,"kind":"bucket","job":"job-0001","tenant":"alpha","tSec":0,"values":{"sched.queue_depth":1}}
{"seq":7,"kind":"lifecycle","job":"job-0002","tenant":"beta","state":"running","tSec":0}
`

// watchPost is the capture after restart and recovery: everything the
// pre-crash clients saw is replayed (in recovery order, with fresh seqs)
// and the interrupted job then runs to completion, emitting new events.
const watchPost = watchHeaderLine + `
{"seq":1,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"queued","tSec":0}
{"seq":2,"kind":"lifecycle","job":"job-0002","tenant":"beta","state":"queued","tSec":0}
{"seq":3,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"running","tSec":0}
{"seq":4,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"retried","tSec":4.5}
{"seq":5,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"done","tSec":9.25}
{"seq":6,"kind":"lifecycle","job":"job-0002","tenant":"beta","state":"running","tSec":0}
{"seq":7,"kind":"lifecycle","job":"job-0002","tenant":"beta","state":"done","tSec":12}
{"seq":8,"kind":"bucket","job":"job-0002","tenant":"beta","tSec":0,"values":{"sched.queue_depth":1}}
`

// watchLossy drops job-0001's retried transition: recovery lost history.
const watchLossy = watchHeaderLine + `
{"seq":1,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"queued","tSec":0}
{"seq":2,"kind":"lifecycle","job":"job-0002","tenant":"beta","state":"queued","tSec":0}
{"seq":3,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"running","tSec":0}
{"seq":4,"kind":"lifecycle","job":"job-0001","tenant":"alpha","state":"done","tSec":9.25}
{"seq":5,"kind":"lifecycle","job":"job-0002","tenant":"beta","state":"running","tSec":0}
`

func TestWatchDiffRecoveryComplete(t *testing.T) {
	pre := writeFixture(t, "pre.watch", watchPre)
	post := writeFixture(t, "post.watch", watchPost)
	if code := runStat(t, pre, post); code != 0 {
		t.Fatalf("complete recovery exit = %d, want 0", code)
	}
}

func TestWatchDiffLostEventsFail(t *testing.T) {
	pre := writeFixture(t, "pre.watch", watchPre)
	lossy := writeFixture(t, "lossy.watch", watchLossy)
	if code := runStat(t, pre, lossy); code != 1 {
		t.Fatalf("lossy recovery exit = %d, want 1", code)
	}
	// The reverse direction is fine: the lossy log is a subset, so all of
	// its transitions appear in the richer one.
	if code := runStat(t, lossy, pre); code != 0 {
		t.Fatalf("subset baseline exit = %d, want 0", code)
	}
}

func TestWatchDiffPrintsMissing(t *testing.T) {
	pre := writeFixture(t, "pre.watch", watchPre)
	lossy := writeFixture(t, "lossy.watch", watchLossy)
	code, got, _ := mdf(t, "stat", pre, lossy)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(got, "LOST alpha job-0001/lifecycle state=retried") {
		t.Fatalf("output does not name the lost event:\n%s", got)
	}
}

func TestWatchDiffRejectsDamagedLogs(t *testing.T) {
	pre := writeFixture(t, "pre.watch", watchPre)
	cases := map[string]string{
		"gap.watch":    strings.Replace(watchPre, `"seq":7`, `"seq":9`, 1),
		"garble.watch": watchHeaderLine + "\n{not json}\n",
		"empty.watch":  "",
	}
	for name, body := range cases {
		bad := writeFixture(t, name, body)
		if code := runStat(t, pre, bad); code != 2 {
			t.Fatalf("%s exit = %d, want 2", name, code)
		}
	}
	// A watch log against a bench artifact is a schema mismatch.
	bench := writeFixture(t, "bench.json", benchBase)
	if code := runStat(t, pre, bench); code != 2 {
		t.Fatalf("watch vs bench exit = %d, want 2", code)
	}
	// Bucket width changing across the restart invalidates the comparison.
	rebucketed := writeFixture(t, "rebucket.watch",
		strings.Replace(watchPost, `"bucketSec":10`, `"bucketSec":20`, 1))
	if code := runStat(t, pre, rebucketed); code != 2 {
		t.Fatalf("bucket width change exit = %d, want 2", code)
	}
}

func TestLoadWatchParsesEvents(t *testing.T) {
	a, err := readArtifact(writeFixture(t, "pre.watch", watchPre))
	if err != nil {
		t.Fatal(err)
	}
	log, err := parseWatch(a)
	if err != nil {
		t.Fatal(err)
	}
	if log.bucketSec != 10 {
		t.Fatalf("bucketSec = %g, want 10", log.bucketSec)
	}
	if len(log.events) != 7 {
		t.Fatalf("events = %d, want 7", len(log.events))
	}
	counts := lifecycleCounts(log)
	if len(counts) != 6 {
		t.Fatalf("lifecycle multiset size = %d, want 6 (bucket events must be excluded)", len(counts))
	}
}
