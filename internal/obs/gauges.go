package obs

import (
	"maps"
	"slices"

	"metadataflow/internal/sim"
)

// GaugeBucket is one populated virtual-time bucket of a node's gauge series.
type GaugeBucket struct {
	// Bucket is the bucket index, as in SeriesPoint.
	Bucket int
	// Values maps each gauge series with a point in the bucket to its value.
	Values map[string]float64
}

// GaugeProbe is the probe of a run whose reader wants one thing of it: the
// master node's gauge series, bucket by bucket (the service's /watch replays
// them for every retired job). It folds each SeriesSet and Counter sample of
// NodeMaster into its bucket as the sample arrives and drops every other
// report. It is neither an Auditor nor a cluster resource observer, so the
// engine builds no span, decision or dataset alias for it and the cluster
// reports no occupation to it.
//
// Buckets holds exactly the SeriesGauge points Recorder.Series would hold for
// NodeMaster had a Recorder taken the same reports (no cluster node has the
// master's ID, so no util.<kind> gauge lives there). Series replays the
// SeriesSet samples before the counter tracks, so a counter sample takes its
// bucket from a set sample of the same name whichever arrived first, and
// within each kind the last write of a bucket wins. The probe keeps the two
// kinds apart for that reason and lays the counters over the sets when
// Buckets is called.
//
// Like the run it observes, a GaugeProbe belongs to the goroutine that steps
// the run: it takes no lock.
type GaugeProbe struct {
	width          float64
	sets, counters []GaugeBucket
}

// NewGaugeProbe returns an empty probe with the given virtual-time bucket
// width (<= 0 uses DefaultBucketSec).
func NewGaugeProbe(bucketSec sim.VTime) *GaugeProbe {
	return &GaugeProbe{width: bucketWidth(float64(bucketSec))}
}

var _ Probe = (*GaugeProbe)(nil)

// gaugeValues returns the values of bucket in bs, which is sorted by bucket,
// inserting the bucket if it is new. Samples arrive in roughly ascending
// virtual time, so the bucket is mostly the last one or a new last one.
func gaugeValues(bs *[]GaugeBucket, bucket int) map[string]float64 {
	i, ok := bucketPos(*bs, bucket, func(g *GaugeBucket) int { return g.Bucket })
	if !ok {
		*bs = slices.Insert(*bs, i, GaugeBucket{Bucket: bucket, Values: make(map[string]float64)})
	}
	return (*bs)[i].Values
}

// Counter implements Probe: a master counter track is a gauge series.
func (g *GaugeProbe) Counter(node int, name string, t sim.VTime, value float64) {
	if node == NodeMaster {
		gaugeValues(&g.counters, bucketIndex(t, g.width))[name] = value
	}
}

// SeriesSet implements Probe.
func (g *GaugeProbe) SeriesSet(node int, name string, t sim.VTime, value float64) {
	if node == NodeMaster {
		gaugeValues(&g.sets, bucketIndex(t, g.width))[name] = value
	}
}

// SeriesAdd implements Probe; a counter series is no gauge.
func (g *GaugeProbe) SeriesAdd(int, string, sim.VTime, float64) {}

// SeriesObserve implements Probe; a histogram series is no gauge.
func (g *GaugeProbe) SeriesObserve(int, string, sim.VTime, float64) {}

// Interval implements Probe; an interval feeds no gauge.
func (g *GaugeProbe) Interval(int, string, sim.VTime, sim.VTime) {}

// Buckets returns the master node's gauges in ascending bucket order, one
// value map per populated bucket. The buckets and their maps are the probe's
// own, handed out rather than copied: read them once the run is over.
func (g *GaugeProbe) Buckets() []GaugeBucket {
	for _, c := range g.counters {
		maps.Copy(gaugeValues(&g.sets, c.Bucket), c.Values)
	}
	return g.sets
}
