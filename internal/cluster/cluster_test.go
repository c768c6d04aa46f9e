package cluster

import (
	"math"
	"metadataflow/internal/sim"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.MemPerWorker = 0 },
		func(c *Config) { c.MemPerWorker = -1 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestAlphaDefinition(t *testing.T) {
	cfg := DefaultConfig()
	// α = (w_d · r_m) / (w_m · r_d) with w/r as times per byte.
	var wd, rm, wm, rd float64 = 1 / diskWriteBW, 1 / memReadBW, 1 / memWriteBW, 1 / diskReadBW
	want := (wd * rm) / (wm * rd)
	if got := cfg.Alpha(); got != want {
		t.Fatalf("alpha = %v, want %v", got, want)
	}
	// Every AMM eviction decision compares against α: pin its bits.
	if got := math.Float64bits(cfg.Alpha()); got != 0x3feccccccccccccd {
		t.Fatalf("alpha bits = %#x, want 0x3feccccccccccccd (0.9)", got)
	}
}

func TestCostHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.DiskReadSec(sim.Bytes(diskReadBW)); math.Abs(got.Seconds()-1) > 1e-9 {
		t.Errorf("DiskReadSec(one second of bytes) = %v, want 1", got)
	}
	if cfg.MemReadSec(1<<20) >= cfg.DiskReadSec(1<<20) {
		t.Error("memory reads must be faster than disk reads")
	}
}

// Zero-byte transfers must cost exactly zero virtual time.
func TestZeroByteTransfersCostZero(t *testing.T) {
	cfg := DefaultConfig()
	costs := map[string]sim.VTime{
		"DiskReadSec":  cfg.DiskReadSec(0),
		"DiskWriteSec": cfg.DiskWriteSec(0),
		"MemReadSec":   cfg.MemReadSec(0),
		"MemWriteSec":  cfg.MemWriteSec(0),
		"NetSec":       cfg.NetSec(0),
	}
	for name, got := range costs {
		if got != 0 {
			t.Errorf("%s(0) = %v, want exactly 0", name, got)
		}
	}
}

func TestNodeResourceSerialization(t *testing.T) {
	n := &Node{}
	end1 := n.CPU(0, 10)
	end2 := n.CPU(0, 5) // requested at t=0 but CPU is busy until 10
	if end1 != 10 {
		t.Fatalf("first task end = %v, want 10", end1)
	}
	if end2 != 15 {
		t.Fatalf("second task must queue: end = %v, want 15", end2)
	}
	// Disk is an independent resource.
	if end := n.Disk(0, 3); end != 3 {
		t.Fatalf("disk end = %v, want 3 (independent of CPU)", end)
	}
}

func TestNodeIdleGap(t *testing.T) {
	n := &Node{}
	n.CPU(0, 2)
	if end := n.CPU(10, 1); end != 11 {
		t.Fatalf("task after idle gap: end = %v, want 11", end)
	}
}

func TestStragglerScaling(t *testing.T) {
	slow := &Node{SlowFactor: 3}
	if end := slow.CPU(0, 2); end != 6 {
		t.Fatalf("straggler end = %v, want 6", end)
	}
	normal := &Node{SlowFactor: 1}
	if end := normal.CPU(0, 2); end != 2 {
		t.Fatalf("unit slow factor end = %v, want 2", end)
	}
}

func TestClusterNew(t *testing.T) {
	c := MustNew(DefaultConfig())
	if len(c.Nodes) != DefaultConfig().Workers {
		t.Fatalf("nodes = %d, want %d", len(c.Nodes), DefaultConfig().Workers)
	}
}

func TestNodeForRoundRobin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 3
	c := MustNew(cfg)
	if c.NodeFor(0) != c.Nodes[0] || c.NodeFor(4) != c.Nodes[1] {
		t.Fatal("NodeFor must map partitions round-robin")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// Property: resource end times are monotone in request order and never
// before the ready time.
func TestNodeMonotonicityProperty(t *testing.T) {
	f := func(durs []uint16, readies []uint16) bool {
		n := &Node{}
		prevEnd := sim.VTime(0)
		for i, d := range durs {
			ready := sim.VTime(0)
			if i < len(readies) {
				ready = sim.VTime(readies[i]) / 16
			}
			dur := sim.VTime(d) / 256
			end := n.CPU(ready, dur)
			if end < ready+dur-1e-9 {
				return false
			}
			if end < prevEnd-1e-9 {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetResourceIndependent(t *testing.T) {
	n := &Node{}
	n.CPU(0, 5)
	if end := n.Net(0, 2); end != 2 {
		t.Fatalf("net end = %v, want 2 (independent of CPU)", end)
	}
	if end := n.Net(0, 3); end != 5 {
		t.Fatalf("net must serialize: end = %v, want 5", end)
	}
}

func TestNetSec(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.NetSec(sim.Bytes(netBW)); math.Abs(got.Seconds()-1) > 1e-9 {
		t.Fatalf("NetSec(one second of bytes) = %v, want 1", got)
	}
}

func TestWriteCostsAndFreeAt(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DiskWriteSec(1<<20) <= 0 || cfg.MemWriteSec(1<<20) <= 0 {
		t.Fatal("non-positive write costs")
	}
	if cfg.MemWriteSec(1<<20) >= cfg.DiskWriteSec(1<<20) {
		t.Fatal("memory writes must be faster than disk writes")
	}
	n := &Node{}
	n.CPU(0, 3)
	n.Disk(0, 5)
	n.Net(0, 7)
	if n.cpuFree != 3 || n.diskFree != 5 || n.netFree != 7 {
		t.Fatalf("free at (%v, %v, %v), want (3, 5, 7)", n.cpuFree, n.diskFree, n.netFree)
	}
}

func TestScaleHonoursFastAndSlowFactors(t *testing.T) {
	fast := &Node{SlowFactor: 0.5}
	if end := fast.CPU(0, 4); end != 2 {
		t.Fatalf("fast node end = %v, want 2 (factor 0.5 honoured)", end)
	}
	slow := &Node{SlowFactor: 2}
	if end := slow.CPU(0, 4); end != 8 {
		t.Fatalf("slow node end = %v, want 8", end)
	}
}

func TestValidateRejectsNegativeSlowFactor(t *testing.T) {
	c := MustNew(DefaultConfig())
	if err := c.Validate(); err != nil {
		t.Fatalf("clean cluster invalid: %v", err)
	}
	c.Nodes[2].SlowFactor = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative slow factor accepted")
	}
}

func TestFaultFactorsComposeAndClear(t *testing.T) {
	n := &Node{SlowFactor: 2}
	n.SetFaultFactors(3, 4)
	if end := n.CPU(0, 1); end != 6 {
		t.Fatalf("CPU with fault slowdown = %v, want 6 (2·3)", end)
	}
	if end := n.Disk(0, 1); end != 24 {
		t.Fatalf("disk with degradation = %v, want 24 (2·3·4)", end)
	}
	n.SetFaultFactors(1, 1)
	if end := n.CPU(24, 1); end != 26 {
		t.Fatalf("CPU after clearing the fault factors = %v, want 26 (only SlowFactor 2)", end)
	}
}

func TestKillAndLiveAwareNodeFor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 3
	c := MustNew(cfg)
	if err := c.Kill(1); err != nil {
		t.Fatalf("Kill(1): %v", err)
	}
	if c.Alive(1) || c.NumLive() != 2 {
		t.Fatalf("live set = %v after killing node 1", c.LiveIndices())
	}
	// Partition 1's home node is dead: it must map to a live stand-in.
	if got := c.NodeFor(1); got != c.Nodes[0] && got != c.Nodes[2] {
		t.Fatalf("NodeFor(1) = node %d, want a live node", got.ID)
	}
	// Live home nodes keep their partitions.
	if c.NodeFor(0) != c.Nodes[0] || c.NodeFor(2) != c.Nodes[2] {
		t.Fatal("NodeFor must keep live home nodes")
	}
	if err := c.Kill(0); err != nil {
		t.Fatalf("Kill(0): %v", err)
	}
	if err := c.Kill(2); err == nil {
		t.Fatal("killing the last live node must be refused")
	}
}
