// Package cluster simulates the compute cluster of §2.1: a set of worker
// nodes with finite memory and unbounded disk, connected to a master. The
// simulation is a deterministic virtual-time model: operators run for real
// over in-process data, but every compute and I/O action is charged virtual
// seconds from a calibrated cost model, and each node serialises work on
// three resource timelines (CPU, disk and network). Contending jobs
// naturally overlap I/O and compute, which reproduces the behaviour of
// parallel job execution in §6.1 without wall-clock measurement noise.
package cluster

import (
	"fmt"

	"metadataflow/internal/sim"
)

// Config describes the simulated cluster: how many workers, and how much
// dataset memory each has. Everything else about the hardware is the paper's
// testbed, fixed below.
type Config struct {
	// Workers is the number of worker nodes (the paper uses up to 12).
	Workers int
	// MemPerWorker is each worker's dataset memory budget.
	MemPerWorker sim.Bytes
}

// The cost model's bandwidths, in bytes/second: the commodity disks and DRAM
// of the paper's testbed, whose workers share 1 Gbps Ethernet (§6.1). Wide
// dependencies shuffle data across the network link.
const (
	diskReadBW  = 150e6
	diskWriteBW = 100e6
	memReadBW   = 5e9
	memWriteBW  = 3e9
	netBW       = 125e6 // 1 Gbps
)

// DefaultConfig mirrors the paper's testbed: 8 active workers (of 12) with
// 10 GB of dataset memory each (§6.2).
func DefaultConfig() Config {
	return Config{Workers: 8, MemPerWorker: 10 << 30}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("cluster: need at least one worker, have %d", c.Workers)
	}
	if c.MemPerWorker <= 0 {
		return fmt.Errorf("cluster: non-positive memory per worker")
	}
	return nil
}

// Alpha is the hardware ratio used by anticipatory memory management
// (§4.3): α = (w_d · r_m) / (w_m · r_d), where w/r are the times to write or
// read a fixed amount of data to/from disk (d) or memory (m). The four times
// are float64 variables: folded into one constant expression, the ratio
// would round differently.
func (c Config) Alpha() float64 {
	wd := 1 / diskWriteBW
	rm := 1 / memReadBW
	wm := 1 / memWriteBW
	rd := 1 / diskReadBW
	return (wd * rm) / (wm * rd)
}

// The XxxSec methods below are the cost model proper: the only sanctioned
// place where a byte count becomes virtual time (division by a bandwidth).
// The unitsafety rule in internal/analysis exempts this package and flags
// equivalent open-coded conversions anywhere else in the simulator.

// DiskReadSec returns the virtual time to read bytes from disk.
func (c Config) DiskReadSec(bytes sim.Bytes) sim.VTime {
	return sim.VTime(float64(bytes) / diskReadBW)
}

// DiskWriteSec returns the virtual time to write bytes to disk.
func (c Config) DiskWriteSec(bytes sim.Bytes) sim.VTime {
	return sim.VTime(float64(bytes) / diskWriteBW)
}

// MemReadSec returns the virtual time to read bytes from memory.
func (c Config) MemReadSec(bytes sim.Bytes) sim.VTime {
	return sim.VTime(float64(bytes) / memReadBW)
}

// MemWriteSec returns the virtual time to write bytes to memory.
func (c Config) MemWriteSec(bytes sim.Bytes) sim.VTime {
	return sim.VTime(float64(bytes) / memWriteBW)
}

// NetSec returns the virtual time to move bytes over one node's link.
func (c Config) NetSec(bytes sim.Bytes) sim.VTime {
	return sim.VTime(float64(bytes) / netBW)
}

// Observer receives resource-occupancy reports from node timelines: every
// interval a CPU, disk or network link is busy. The resource parameter is
// one of "cpu", "disk", "net". The interface is declared here (not in
// internal/obs) so the cluster stays dependency-free; obs.Recorder
// satisfies it structurally.
type Observer interface {
	ResourceBusy(node int, resource string, start, end sim.VTime)
}

// Node is a simulated worker with three serial resources: a CPU, a disk and
// a network link. Requests on a resource are served in arrival order.
type Node struct {
	// ID is the worker index.
	ID int
	// SlowFactor scales every duration on this node: > 1 models a
	// straggler (§5), a value in (0, 1) a faster-than-baseline node.
	// Zero means 1; negative values are rejected by Cluster.Validate.
	SlowFactor float64

	// faultSlow and faultDisk are transient fault-injected multipliers
	// (0 = none); they compose with SlowFactor, and SetFaultFactors replaces
	// them as fault windows open and close.
	faultSlow float64
	faultDisk float64
	// dead marks a permanently failed node (Kill); a node never revives.
	dead bool

	cpuFree  sim.VTime
	diskFree sim.VTime
	netFree  sim.VTime

	// observer, when non-nil, is told about every busy interval on the
	// node's resource timelines.
	observer Observer
}

func (n *Node) scale(dur sim.VTime) sim.VTime {
	f := 1.0
	if n.SlowFactor > 0 {
		f = n.SlowFactor
	}
	if n.faultSlow > 0 {
		f *= n.faultSlow
	}
	return sim.VTime(float64(dur) * f)
}

// EffectiveSlowFactor returns the combined duration multiplier currently in
// force on the node: the user-set SlowFactor composed with any transient
// fault-injected slowdown. Speculative straggler mitigation rebalances
// compute by its inverse.
func (n *Node) EffectiveSlowFactor() float64 { return n.scale(1).Seconds() }

// SetFaultFactors installs the transient fault-injected multipliers for the
// current virtual time; values <= 0 or exactly 1 mean "none".
func (n *Node) SetFaultFactors(slow, disk float64) {
	n.faultSlow, n.faultDisk = 0, 0
	if slow > 0 && slow != 1 {
		n.faultSlow = slow
	}
	if disk > 0 && disk != 1 {
		n.faultDisk = disk
	}
}

// Alive reports whether the node has not been permanently failed.
func (n *Node) Alive() bool { return !n.dead }

// CPU occupies the node's CPU for dur virtual seconds starting no earlier
// than ready, returning the finish time.
func (n *Node) CPU(ready, dur sim.VTime) sim.VTime {
	start := max(ready, n.cpuFree)
	n.cpuFree = start + n.scale(dur)
	if n.observer != nil && n.cpuFree > start {
		n.observer.ResourceBusy(n.ID, "cpu", start, n.cpuFree)
	}
	return n.cpuFree
}

// Disk occupies the node's disk for dur virtual seconds starting no earlier
// than ready, returning the finish time. A fault-injected disk-bandwidth
// degradation stretches the duration on top of the node's slow factor.
func (n *Node) Disk(ready, dur sim.VTime) sim.VTime {
	start := max(ready, n.diskFree)
	d := n.scale(dur)
	if n.faultDisk > 0 {
		d = sim.VTime(float64(d) * n.faultDisk)
	}
	n.diskFree = start + d
	if n.observer != nil && n.diskFree > start {
		n.observer.ResourceBusy(n.ID, "disk", start, n.diskFree)
	}
	return n.diskFree
}

// Net occupies the node's network link for dur virtual seconds starting no
// earlier than ready, returning the finish time.
func (n *Node) Net(ready, dur sim.VTime) sim.VTime {
	start := max(ready, n.netFree)
	n.netFree = start + n.scale(dur)
	if n.observer != nil && n.netFree > start {
		n.observer.ResourceBusy(n.ID, "net", start, n.netFree)
	}
	return n.netFree
}

// Cluster is a set of simulated worker nodes sharing a configuration.
type Cluster struct {
	Config Config
	Nodes  []*Node
}

// New builds a cluster from the configuration.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Config: cfg}
	for i := 0; i < cfg.Workers; i++ {
		c.Nodes = append(c.Nodes, &Node{ID: i})
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// SetObserver installs (or, with nil, removes) the resource observer on
// every node.
func (c *Cluster) SetObserver(o Observer) {
	for _, n := range c.Nodes {
		n.observer = o
	}
}

// Validate reports errors in the cluster's mutable per-node state: a
// non-positive explicit SlowFactor is rejected (zero means unset).
func (c *Cluster) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	for _, n := range c.Nodes {
		if n.SlowFactor < 0 {
			return fmt.Errorf("cluster: node %d has negative slow factor %g", n.ID, n.SlowFactor)
		}
	}
	return nil
}

// Kill permanently removes a node from the live set. It refuses to kill the
// last live worker.
func (c *Cluster) Kill(i int) error {
	if i < 0 || i >= len(c.Nodes) {
		return fmt.Errorf("cluster: kill of unknown node %d", i)
	}
	if c.NumLive() <= 1 && c.Nodes[i].Alive() {
		return fmt.Errorf("cluster: cannot kill the last live node %d", i)
	}
	c.Nodes[i].dead = true
	return nil
}

// Alive reports whether node i is in the live set.
func (c *Cluster) Alive(i int) bool { return i >= 0 && i < len(c.Nodes) && c.Nodes[i].Alive() }

// NumLive returns the number of live nodes.
func (c *Cluster) NumLive() int {
	n := 0
	for _, nd := range c.Nodes {
		if nd.Alive() {
			n++
		}
	}
	return n
}

// LiveIndices returns the indices of the live nodes in ascending order.
func (c *Cluster) LiveIndices() []int {
	out := make([]int, 0, len(c.Nodes))
	for i, nd := range c.Nodes {
		if nd.Alive() {
			out = append(out, i)
		}
	}
	return out
}

// NodeFor maps a partition index to a worker round-robin over the live set:
// the home node when it is alive, otherwise the partition's deterministic
// stand-in among the survivors.
func (c *Cluster) NodeFor(part int) *Node {
	n := c.Nodes[part%len(c.Nodes)]
	if n.Alive() {
		return n
	}
	live := c.LiveIndices()
	if len(live) == 0 {
		return n
	}
	return c.Nodes[live[part%len(live)]]
}
