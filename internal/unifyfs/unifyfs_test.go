package unifyfs

import (
	"fmt"
	"testing"
	"time"

	"storagesim/internal/device"
	"storagesim/internal/fsapi"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

func testConfig(fab *sim.Fabric, placement Placement, servers int) Config {
	return Config{
		Name:             "unifyfs-test",
		PerNode:          device.NVMe970ProSpec("ssd"),
		Placement:        placement,
		ChunkBytes:       1 << 20,
		IOServersPerNode: servers,
		ServerLatency:    50 * time.Microsecond,
		Interconnect:     netsim.NewLinkBank(fab, "ic", 1, 12.5e9, 2*time.Microsecond),
	}
}

func build(t *testing.T, placement Placement, servers, nodes int) (*sim.Env, *System, []fsapi.Client) {
	t.Helper()
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	sys, err := New(env, fab, testConfig(fab, placement, servers))
	if err != nil {
		t.Fatal(err)
	}
	var mounts []fsapi.Client
	for i := 0; i < nodes; i++ {
		nic := netsim.NewIface(fab, fmt.Sprintf("n%d/nic", i), 25e9, 0)
		mounts = append(mounts, sys.Mount(fmt.Sprintf("n%d", i), nic))
	}
	return env, sys, mounts
}

func TestConfigValidate(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	good := testConfig(fab, LocalFirst, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.ChunkBytes = 0 },
		func(c *Config) { c.IOServersPerNode = 0 },
		func(c *Config) { c.ServerLatency = -1 },
		func(c *Config) { c.Placement = RoundRobin; c.Interconnect = nil },
		func(c *Config) { c.PerNode.ReadBW = 0 },
	}
	for i, mutate := range mutations {
		cfg := testConfig(fab, LocalFirst, 4)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSharedNamespace(t *testing.T) {
	env, _, mounts := build(t, LocalFirst, 4, 2)
	env.Go("x", func(p *sim.Proc) {
		f := mounts[0].Open(p, "/ckpt", true)
		f.WriteAt(p, 0, 4<<20)
		f.Close(p)
		g := mounts[1].Open(p, "/ckpt", false)
		if g.Size() != 4<<20 {
			t.Errorf("peer sees size %d", g.Size())
		}
		g.ReadAt(p, 0, 4<<20) // remote read must work
		g.Close(p)
	})
	env.Run()
}

func TestLocalFirstKeepsWritesLocal(t *testing.T) {
	env, sys, mounts := build(t, LocalFirst, 4, 4)
	env.Go("x", func(p *sim.Proc) {
		f := mounts[2].Open(p, "/f", true)
		for i := int64(0); i < 8; i++ {
			f.WriteAt(p, i<<20, 1<<20)
		}
	})
	env.Run()
	for ino, chunks := range sys.owners {
		for k, owner := range chunks {
			if owner != 2 {
				t.Fatalf("inode %d chunk %d placed on node %d, want writer's node 2", ino, k, owner)
			}
		}
	}
}

func TestRoundRobinStripesChunks(t *testing.T) {
	env, sys, mounts := build(t, RoundRobin, 4, 4)
	env.Go("x", func(p *sim.Proc) {
		f := mounts[0].Open(p, "/f", true)
		for i := int64(0); i < 8; i++ {
			f.WriteAt(p, i<<20, 1<<20)
		}
	})
	env.Run()
	seen := map[int]int{}
	for _, chunks := range sys.owners {
		for _, owner := range chunks {
			seen[owner]++
		}
	}
	if len(seen) != 4 {
		t.Fatalf("stripes used %d of 4 nodes: %v", len(seen), seen)
	}
	for node, n := range seen {
		if n != 2 {
			t.Fatalf("node %d owns %d chunks, want 2: %v", node, n, seen)
		}
	}
}

func TestRemoteReadSlowerThanLocal(t *testing.T) {
	// LocalFirst: the writer reads locally; a peer crosses the
	// interconnect and pays the extra latency per chunk.
	env, _, mounts := build(t, LocalFirst, 8, 2)
	var localDur, remoteDur sim.Duration
	env.Go("x", func(p *sim.Proc) {
		f := mounts[0].Open(p, "/f", true)
		f.WriteAt(p, 0, 32<<20)
		start := p.Now()
		f.ReadAt(p, 0, 32<<20)
		localDur = p.Now().Sub(start)
		g := mounts[1].Open(p, "/f", false)
		start = p.Now()
		g.ReadAt(p, 0, 32<<20)
		remoteDur = p.Now().Sub(start)
	})
	env.Run()
	if remoteDur <= localDur {
		t.Fatalf("remote read (%v) not slower than local (%v)", remoteDur, localDur)
	}
}

func TestIOServerPoolThrottles(t *testing.T) {
	// One I/O server versus eight, with concurrent requesters on the same
	// node: the small pool must serialize.
	measure := func(servers int) sim.Duration {
		env, _, mounts := build(t, LocalFirst, servers, 1)
		var last sim.Time
		wg := sim.NewWaitGroup(env)
		for i := 0; i < 8; i++ {
			i := i
			wg.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				f := mounts[0].Open(p, fmt.Sprintf("/f%d", i), true)
				for j := int64(0); j < 16; j++ {
					f.WriteAt(p, j<<20, 1<<20)
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		env.Run()
		return sim.Duration(last)
	}
	one, eight := measure(1), measure(8)
	if one <= eight {
		t.Fatalf("1 I/O server (%v) not slower than 8 (%v)", one, eight)
	}
}

func TestStreamLocalFirstWritesAtDeviceSpeed(t *testing.T) {
	env, _, mounts := build(t, LocalFirst, 4, 4)
	const total = 4 << 30
	var end sim.Time
	env.Go("x", func(p *sim.Proc) {
		mounts[0].StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
		end = p.Now()
	})
	env.Run()
	bw := float64(total) / sim.Duration(end).Seconds()
	devW := device.NVMe970ProSpec("x").WriteBW
	if bw < 0.9*devW || bw > 1.1*devW {
		t.Fatalf("local-first stream write = %.2e, want ~device %.2e", bw, devW)
	}
}

func TestStreamRoundRobinUsesInterconnect(t *testing.T) {
	// Round-robin writes push (n-1)/n of the bytes over the interconnect:
	// with a slow interconnect they must be slower than local-first.
	measure := func(pl Placement) float64 {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		cfg := testConfig(fab, pl, 4)
		cfg.Interconnect = netsim.NewLinkBank(fab, "ic", 1, 1e9, 2*time.Microsecond) // slow
		sys := MustNew(env, fab, cfg)
		var mounts []fsapi.Client
		for i := 0; i < 4; i++ {
			nic := netsim.NewIface(fab, fmt.Sprintf("n%d/nic", i), 25e9, 0)
			mounts = append(mounts, sys.Mount(fmt.Sprintf("n%d", i), nic))
		}
		const total = 2 << 30
		var end sim.Time
		env.Go("x", func(p *sim.Proc) {
			mounts[0].StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
			end = p.Now()
		})
		env.Run()
		return float64(total) / sim.Duration(end).Seconds()
	}
	local, rr := measure(LocalFirst), measure(RoundRobin)
	if rr >= local {
		t.Fatalf("round-robin over a slow interconnect (%.2e) not slower than local-first (%.2e)", rr, local)
	}
}

func TestRemoveDropsChunks(t *testing.T) {
	env, sys, mounts := build(t, RoundRobin, 4, 2)
	env.Go("x", func(p *sim.Proc) {
		f := mounts[0].Open(p, "/f", true)
		f.WriteAt(p, 0, 4<<20)
		f.Close(p)
		mounts[0].Remove(p, "/f")
	})
	env.Run()
	if len(sys.owners) != 0 {
		t.Fatalf("chunks of %d files survived removal", len(sys.owners))
	}
	if sys.Namespace().Lookup("/f") != nil {
		t.Fatal("file survived removal")
	}
}

func TestFsyncIsLocalFlushOnly(t *testing.T) {
	env, _, mounts := build(t, LocalFirst, 4, 1)
	var cost sim.Duration
	env.Go("x", func(p *sim.Proc) {
		f := mounts[0].Open(p, "/f", true)
		f.WriteAt(p, 0, 1<<20)
		start := p.Now()
		f.Fsync(p)
		cost = p.Now().Sub(start)
	})
	env.Run()
	if cost != device.NVMe970ProSpec("x").FlushLatency {
		t.Fatalf("fsync cost %v, want one local device flush", cost)
	}
}

// TestOpLevelStampsFlowTag: op-level data paths stamp their own mount's
// tag, so a process that opened a second, differently tagged mount last
// still attributes its writes to the mount it writes through.
func TestOpLevelStampsFlowTag(t *testing.T) {
	env, sys, mounts := build(t, RoundRobin, 4, 4)
	a, b := mounts[0], mounts[1]
	a.(fsapi.FlowTagger).SetFlowTag("a")
	b.(fsapi.FlowTagger).SetFlowTag("b")
	env.Go("x", func(p *sim.Proc) {
		f := a.Open(p, "/fa", true)
		b.Open(p, "/fb", true)
		f.WriteAt(p, 0, 4<<20) // chunks 1-3 cross the interconnect
	})
	env.Run()
	if got := sys.fab.TagBytes("a"); got < 3<<20 {
		t.Fatalf("tag a carried %.0f bytes, want at least the 3 MiB remote share", got)
	}
	if got := sys.fab.TagBytes("b"); got != 0 {
		t.Fatalf("tag b carried %.0f bytes of mount a's write", got)
	}
}

// TestAbortStopsAtChunkBoundary: an abort fired during a multi-chunk write
// lets the chunk in service finish and starts no further chunk.
func TestAbortStopsAtChunkBoundary(t *testing.T) {
	env, sys, mounts := build(t, LocalFirst, 4, 1)
	ab := sim.NewAbort()
	var ino *fsapi.Inode
	env.Go("x", func(p *sim.Proc) {
		f := mounts[0].Open(p, "/f", true)
		ino = sys.Namespace().Lookup("/f")
		env.Go("deadline", func(q *sim.Proc) {
			q.Sleep(100 * time.Microsecond) // inside the first chunk
			ab.Fire()
		})
		p.SetAbort(ab)
		f.WriteAt(p, 0, 8<<20)
	})
	env.Run()
	if n := len(sys.owners[ino.ID]); n != 1 {
		t.Fatalf("aborted 8-chunk write placed %d chunks, want 1", n)
	}
}
