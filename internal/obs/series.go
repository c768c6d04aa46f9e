package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"metadataflow/internal/sim"
)

// This file defines the deterministic time-series layer: virtual-time-
// bucketed counters, gauges and log-bucketed (HDR-style) histograms,
// reported through the Probe series methods (SeriesAdd, SeriesSet,
// SeriesObserve, Interval) and materialised by
// Recorder.Series into a schema-stable mdf.series/v1 document.
//
// Determinism contract: bucket indices are floor(t / bucket_sec) over
// sim.VTime (never wall clock); log-histogram bucketing uses math.Frexp,
// which is exact binary decomposition, not a transcendental approximation;
// every collection in the document is sorted (series by name then node,
// points by bucket index), so serialising the series of the same seed twice
// is byte-identical. Beyond the explicit series samples, Series derives
//
//   - a gauge series from every Counter track (last sample per bucket),
//   - a per-bucket duration histogram from every task span kind
//     ("lat.<kind>", e.g. lat.stage, lat.eval), and
//   - a utilization gauge from every resource span kind ("util.<kind>",
//     e.g. util.cpu/util.disk/util.net: busy fraction of each bucket),
//
// so the memory manager's counter tracks and the cluster's resource
// timelines become time series without those layers changing.

// SeriesSchema is the time-series document schema identifier.
const SeriesSchema = "mdf.series/v1"

// DefaultBucketSec is the default virtual-time bucket width in seconds.
const DefaultBucketSec = 10.0

// Series kinds.
const (
	// SeriesCounter sums SeriesAdd deltas per bucket.
	SeriesCounter = "counter"
	// SeriesGauge keeps the last SeriesSet value per bucket.
	SeriesGauge = "gauge"
	// SeriesHistogram log-buckets SeriesObserve values per bucket.
	SeriesHistogram = "histogram"
)

// LogBucket is one power-of-two bucket of a per-bucket histogram: the count
// of observations v with 2^(Exp-1) < v <= 2^Exp. Exp 0 with the special
// floor marker collects non-positive observations.
type LogBucket struct {
	Exp   int   `json:"exp"`
	Count int64 `json:"count"`
}

// logExpFloor marks the log bucket collecting observations <= 0, which have
// no power-of-two bound.
const logExpFloor = math.MinInt32

// logExp returns the histogram bucket exponent of v: the smallest e with
// v <= 2^e, computed exactly via binary decomposition (no transcendental
// functions, so bucketing is bit-reproducible).
func logExp(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return logExpFloor
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if frac == 0.5 {
		// v is an exact power of two: 2^(exp-1), upper bound of bucket exp-1.
		return exp - 1
	}
	return exp
}

// SeriesPoint is one bucketed value of a counter or gauge series.
type SeriesPoint struct {
	// Bucket is the bucket index; the bucket covers virtual time
	// [Bucket*bucket_sec, (Bucket+1)*bucket_sec).
	Bucket int `json:"bucket"`
	// Value is the bucket's value: the summed deltas of a counter series,
	// the last set value of a gauge series.
	Value float64 `json:"value"`
}

// HistPoint is one bucketed histogram of a histogram series.
type HistPoint struct {
	Bucket int     `json:"bucket"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
	// Log are the power-of-two buckets with nonzero counts, ascending by
	// exponent; an entry with "exp" logExpFloor collects values <= 0.
	Log []LogBucket `json:"log,omitempty"`
}

// Series is one named time series of the document.
type Series struct {
	// Name identifies the series ("sched.queue_depth",
	// "engine.branch_score.T9[choose].b2", "util.cpu", ...).
	Name string `json:"name"`
	// Node is the worker index the series belongs to, or NodeMaster.
	Node int `json:"node"`
	// Kind is SeriesCounter, SeriesGauge or SeriesHistogram.
	Kind string `json:"kind"`
	// Points holds counter/gauge buckets in ascending bucket order.
	Points []SeriesPoint `json:"points,omitempty"`
	// Hist holds histogram buckets in ascending bucket order.
	Hist []HistPoint `json:"hist,omitempty"`
}

// SeriesDoc is the mdf.series/v1 document: every time series of one run.
type SeriesDoc struct {
	Schema string `json:"schema"`
	// BucketSec is the virtual-time bucket width.
	BucketSec sim.VTime `json:"bucket_sec"`
	// Buckets is the number of buckets covering the run (max index + 1).
	Buckets int `json:"buckets"`
	// Series are sorted by name, then node.
	Series []Series `json:"series"`
}

// WriteJSON serialises the document as indented JSON. The builder sorts
// every collection, so the bytes depend only on the recorded telemetry.
func (d *SeriesDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// seriesOp distinguishes the three explicit series sample kinds.
type seriesOp uint8

const (
	opAdd seriesOp = iota
	opSet
	opObserve
)

// seriesSample is one explicit series report retained by the Recorder.
type seriesSample struct {
	node int
	name string
	op   seriesOp
	t    sim.VTime
	v    float64
}

// Interval is one closed named interval reported through Probe.Interval (a
// branch lifetime, a drain window).
type Interval struct {
	// Node is the worker index, or NodeMaster.
	Node int
	// Name labels the interval series.
	Name string
	// Start and End bound the interval in virtual time.
	Start, End sim.VTime
}

// seriesKey identifies one series while building the document. kind is the
// position of the kind string in seriesKinds, which is also its sort order.
type seriesKey struct {
	name string
	node int
	kind uint8
}

const (
	kindCounter uint8 = iota
	kindGauge
	kindHistogram
)

// seriesKinds spells the kinds of seriesKey, in ascending string order.
var seriesKinds = [...]string{SeriesCounter, SeriesGauge, SeriesHistogram}

// seriesBuilder accumulates bucketed values for one document. A sample's
// key is interned once, to an index into accums; everything else — its
// bucket, its running sum, its log bucket — is found in small slices kept
// sorted by bucket, which samples arriving in roughly ascending virtual
// time mostly append to.
type seriesBuilder struct {
	bucketSec float64
	index     map[seriesKey]int32
	accums    []seriesAccum
	maxBucket int
}

// seriesAccum holds the buckets of one series, ascending: points for a
// counter or a gauge, hists for a histogram.
type seriesAccum struct {
	key    seriesKey
	points []SeriesPoint
	hists  []HistPoint
}

func newSeriesBuilder(bucketSec float64) *seriesBuilder {
	return &seriesBuilder{
		bucketSec: bucketWidth(bucketSec),
		index:     make(map[seriesKey]int32),
	}
}

// bucketWidth resolves a requested bucket width: <= 0 means the default.
func bucketWidth(bucketSec float64) float64 {
	if bucketSec <= 0 {
		return DefaultBucketSec
	}
	return bucketSec
}

// bucketIndex maps a virtual time onto its bucket index.
func bucketIndex(t sim.VTime, bucketSec float64) int {
	if t <= 0 {
		return 0
	}
	return int(t.Seconds() / bucketSec)
}

func (b *seriesBuilder) bucketOf(t sim.VTime) int { return bucketIndex(t, b.bucketSec) }

func (b *seriesBuilder) note(bucket int) {
	if bucket > b.maxBucket {
		b.maxBucket = bucket
	}
}

// series interns a key and returns its accumulator. The pointer is good
// until the next call.
func (b *seriesBuilder) series(node int, name string, kind uint8) *seriesAccum {
	key := seriesKey{name: name, node: node, kind: kind}
	i, ok := b.index[key]
	if !ok {
		i = int32(len(b.accums))
		b.index[key] = i
		b.accums = append(b.accums, seriesAccum{key: key})
	}
	return &b.accums[i]
}

// bucketPos finds bucket in a slice sorted by the bucket that of reads,
// trying the end before searching: it returns the position and whether the
// bucket is already there.
func bucketPos[T any](s []T, bucket int, of func(*T) int) (int, bool) {
	if n := len(s); n == 0 || of(&s[n-1]) < bucket {
		return n, false
	}
	return sort.Find(len(s), func(i int) int { return bucket - of(&s[i]) })
}

// point returns the bucket's entry of a counter or gauge series, inserting a
// zero one if the bucket is new.
func (a *seriesAccum) point(bucket int) *SeriesPoint {
	i, ok := bucketPos(a.points, bucket, func(p *SeriesPoint) int { return p.Bucket })
	if !ok {
		a.points = slices.Insert(a.points, i, SeriesPoint{Bucket: bucket})
	}
	return &a.points[i]
}

func (b *seriesBuilder) add(node int, name string, t sim.VTime, delta float64) {
	bucket := b.bucketOf(t)
	b.series(node, name, kindCounter).point(bucket).Value += delta
	b.note(bucket)
}

func (b *seriesBuilder) set(node int, name string, t sim.VTime, value float64) {
	bucket := b.bucketOf(t)
	// Samples arrive in call order, which the deterministic engine fixes;
	// the last write of a bucket wins.
	b.series(node, name, kindGauge).point(bucket).Value = value
	b.note(bucket)
}

func (b *seriesBuilder) observe(node int, name string, t sim.VTime, value float64) {
	bucket := b.bucketOf(t)
	a := b.series(node, name, kindHistogram)
	i, ok := bucketPos(a.hists, bucket, func(h *HistPoint) int { return h.Bucket })
	if !ok {
		a.hists = slices.Insert(a.hists, i, HistPoint{Bucket: bucket})
	}
	h := &a.hists[i]
	h.Count++
	h.Sum += value
	// Log stays ascending by exponent; a bucket sees a handful of them.
	exp := logExp(value)
	j := 0
	for j < len(h.Log) && h.Log[j].Exp < exp {
		j++
	}
	if j == len(h.Log) || h.Log[j].Exp != exp {
		h.Log = slices.Insert(h.Log, j, LogBucket{Exp: exp})
	}
	h.Log[j].Count++
	b.note(bucket)
}

// spreadBusy calls add with the busy fraction of every bucket the interval
// [start, end] overlaps.
func spreadBusy(start, end sim.VTime, bucketSec float64, add func(bucket int, frac float64)) {
	first, last := bucketIndex(start, bucketSec), bucketIndex(end, bucketSec)
	for bi := first; bi <= last; bi++ {
		lo := float64(bi) * bucketSec
		hi := lo + bucketSec
		s, e := start.Seconds(), end.Seconds()
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			add(bi, (e-s)/bucketSec)
		}
	}
}

// utilization spreads a busy interval over the buckets it overlaps, adding
// the busy fraction of each bucket to a gauge series.
func (b *seriesBuilder) utilization(node int, name string, start, end sim.VTime) {
	if end < start {
		return
	}
	a := b.series(node, name, kindGauge)
	spreadBusy(start, end, b.bucketSec, func(bucket int, frac float64) {
		a.point(bucket).Value += frac
	})
	b.note(b.bucketOf(end))
}

// doc renders the accumulated buckets into the document, series sorted by
// name, then node, then kind.
func (b *seriesBuilder) doc() *SeriesDoc {
	slices.SortFunc(b.accums, func(x, y seriesAccum) int {
		return cmp.Or(
			strings.Compare(x.key.name, y.key.name),
			cmp.Compare(x.key.node, y.key.node),
			cmp.Compare(x.key.kind, y.key.kind),
		)
	})
	doc := &SeriesDoc{
		Schema:    SeriesSchema,
		BucketSec: sim.VTime(b.bucketSec),
		Buckets:   b.maxBucket + 1,
		Series:    make([]Series, len(b.accums)),
	}
	for i, a := range b.accums {
		doc.Series[i] = Series{
			Name: a.key.name, Node: a.key.node, Kind: seriesKinds[a.key.kind],
			Points: a.points, Hist: a.hists,
		}
	}
	return doc
}

// spanSeries names the series a span kind feeds: the util.<kind> gauge of a
// resource kind, the lat.<kind> histogram of any other. The kinds the
// runtime emits are spelled out so that building a document formats no name
// per span.
func spanSeries(k Kind) (name string, resource bool) {
	switch k {
	case KindCPU:
		return "util.cpu", true
	case KindDisk:
		return "util.disk", true
	case KindNet:
		return "util.net", true
	case KindStage:
		return "lat.stage", false
	case KindEval:
		return "lat.eval", false
	case KindChoose:
		return "lat.choose", false
	case KindPruned:
		return "lat.pruned", false
	case KindRecovery:
		return "lat.recovery", false
	}
	return "lat." + string(k), false
}

// Series materialises the recorded telemetry into the mdf.series/v1
// document with the given virtual-time bucket width (<= 0 uses
// DefaultBucketSec). Besides the explicit series samples it derives
// a gauge series from every Counter track, a "lat.<kind>" duration
// histogram from every task span kind, a "util.<kind>" busy-fraction gauge
// from every resource span kind (cpu, disk, net), and for every interval
// series a per-bucket start counter plus a "<name>.duration" histogram.
func (r *Recorder) Series(bucketSec sim.VTime) *SeriesDoc {
	b := newSeriesBuilder(float64(bucketSec))
	for _, s := range r.series {
		switch s.op {
		case opAdd:
			b.add(s.node, s.name, s.t, s.v)
		case opSet:
			b.set(s.node, s.name, s.t, s.v)
		case opObserve:
			b.observe(s.node, s.name, s.t, s.v)
		}
	}
	for _, c := range r.counters {
		b.set(c.Node, c.Name, c.T, c.Value)
	}
	for _, sp := range r.spans {
		if name, resource := spanSeries(sp.Kind); resource {
			b.utilization(sp.Node, name, sp.Start, sp.End)
		} else {
			b.observe(sp.Node, name, sp.End, (sp.End - sp.Start).Seconds())
		}
	}
	for _, iv := range r.intervals {
		b.add(iv.Node, iv.Name, iv.Start, 1)
		b.observe(iv.Node, iv.Name+".duration", iv.End, (iv.End - iv.Start).Seconds())
	}
	return b.doc()
}
