// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (see DESIGN.md's per-experiment index), the takeaway and ablation
// sweeps, and micro-benchmarks of the simulation engine itself.
//
// Figure benchmarks measure how long the simulator takes to regenerate the
// artifact (wall time of the sweep) and report the headline simulated
// metric via b.ReportMetric, so a bench run doubles as a results summary:
//
//	go test -bench=. -benchmem
package storagesim_test

import (
	"fmt"
	"testing"

	storagesim "storagesim"
	"storagesim/internal/cache"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
)

func quickOpts() storagesim.ExperimentOptions {
	return storagesim.ExperimentOptions{Quick: true, Reps: 1}
}

// findSeries locates a named series in a panel (helper for metrics).
func findSeries(p storagesim.Panel, name string) stats.Series {
	for _, s := range p.Series {
		if s.Name == name {
			return s
		}
	}
	return stats.Series{}
}

// BenchmarkTableI regenerates Table I (cluster inventory).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := storagesim.TableIExperiment(); len(tab.Rows) != 4 {
			b.Fatal("Table I incomplete")
		}
	}
}

// BenchmarkFig2a regenerates Figure 2a (Lassen IOR scalability, VAST vs
// GPFS, three workloads). Reports VAST's gateway plateau and GPFS's
// 64-node aggregate in GB/s.
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := storagesim.Fig2a(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		sci := panels[0]
		_, vmax := findSeries(sci, "vast").MaxY()
		b.ReportMetric(vmax, "vast-plateau-GB/s")
		b.ReportMetric(findSeries(sci, "gpfs").YAt(64), "gpfs-64n-GB/s")
	}
}

// BenchmarkFig2b regenerates Figure 2b (Wombat IOR scalability, VAST/RDMA
// vs node-local NVMe).
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := storagesim.Fig2b(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		ml := panels[2]
		_, vmax := findSeries(ml, "vast").MaxY()
		b.ReportMetric(vmax, "vast-ml-plateau-GB/s")
	}
}

// BenchmarkFig3 regenerates Figure 3 (single-node fsync tests on all four
// machines). Reports the Wombat VAST/NVMe fsync-write ratio (paper: ~5x).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := storagesim.Fig3(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range panels {
			if p.ID == "fig3d-write+fsync" {
				ratio := findSeries(p, "vast").YAt(32) / findSeries(p, "nvme").YAt(32)
				b.ReportMetric(ratio, "vast/nvme-fsync-ratio")
			}
		}
	}
}

// BenchmarkFig4aResNet regenerates Figure 4a (ResNet-50 I/O time
// analysis). Reports VAST's hidden-I/O fraction.
func BenchmarkFig4aResNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := storagesim.Fig4("resnet50", quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		ovl := findSeries(p, "vast overlap").YAt(8)
		novl := findSeries(p, "vast non-overlap").YAt(8)
		b.ReportMetric(ovl/(ovl+novl), "vast-hidden-frac")
	}
}

// BenchmarkFig4bCosmoflow regenerates Figure 4b (Cosmoflow I/O time
// analysis) — the heaviest sweep in the suite.
func BenchmarkFig4bCosmoflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := storagesim.Fig4("cosmoflow", quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findSeries(p, "vast non-overlap").YAt(1), "vast-stall-s")
		b.ReportMetric(findSeries(p, "gpfs non-overlap").YAt(1), "gpfs-stall-s")
	}
}

// BenchmarkFig5ResNet regenerates Figure 5 (ResNet-50 app/system
// throughput).
func BenchmarkFig5ResNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, system, err := storagesim.Fig56("resnet50", quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findSeries(app, "gpfs").YAt(8)/findSeries(app, "vast").YAt(8), "app-gpfs/vast")
		b.ReportMetric(findSeries(system, "gpfs").YAt(8)/findSeries(system, "vast").YAt(8), "sys-gpfs/vast")
	}
}

// BenchmarkFig6Cosmoflow regenerates Figure 6 (Cosmoflow app/system
// throughput).
func BenchmarkFig6Cosmoflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, system, err := storagesim.Fig56("cosmoflow", quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(findSeries(app, "gpfs").YAt(1)/findSeries(app, "vast").YAt(1), "app-gpfs/vast")
		_ = system
	}
}

// BenchmarkTakeawayRDMAvsTCP regenerates the administrator takeaway.
func BenchmarkTakeawayRDMAvsTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := storagesim.TakeawayRDMAvsTCP(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 2 {
			b.Fatal("takeaway incomplete")
		}
	}
}

// BenchmarkTakeawaySeqVsRandom regenerates the I/O-researcher takeaway.
func BenchmarkTakeawaySeqVsRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := storagesim.TakeawaySeqVsRandom(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFabric sweeps the CBox-DBox fabric (the paper's future
// work, AB1 in DESIGN.md).
func BenchmarkAblationFabric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := storagesim.AblationFabric(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNconnect sweeps nconnect (AB2).
func BenchmarkAblationNconnect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := storagesim.AblationNconnect(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCNodes sweeps the CNode count (AB3).
func BenchmarkAblationCNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := storagesim.AblationCNodes(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTCPGateway sweeps the Lassen gateway capacity.
func BenchmarkAblationTCPGateway(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := storagesim.AblationTCPGateway(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSharedFile quantifies the N-1 vs N-N methodology
// choice (Section IV-C.1).
func BenchmarkAblationSharedFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := storagesim.AblationSharedFile(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsistency reproduces the 10-repetition shared-environment
// methodology (Section IV-C).
func BenchmarkConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := storagesim.Consistency(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadSuitability regenerates the Section III-B workload
// mapping matrix.
func BenchmarkWorkloadSuitability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := storagesim.WorkloadSuitability(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) < 6 {
			b.Fatal("suitability matrix incomplete")
		}
	}
}

// BenchmarkFailoverStudy exercises stateless-CNode failover in degraded
// mode (Section III-A.2).
func BenchmarkFailoverStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := storagesim.FailoverStudy(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 4 {
			b.Fatal("failover study incomplete")
		}
	}
}

// BenchmarkMDTest measures the metadata benchmark on GPFS.
func BenchmarkMDTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := storagesim.New()
		cl, err := s.Cluster("Lassen", 2)
		if err != nil {
			b.Fatal(err)
		}
		mounts := storagesim.MountAll(storagesim.GPFSOnLassen(cl), cl)
		res, err := storagesim.RunMDTest(s.Env, mounts, storagesim.MDTestConfig{
			FilesPerRank: 128, ProcsPerNode: 8, Dir: "/b",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CreatesPerSec, "sim-creates/s")
	}
}

// --- engine micro-benchmarks ---

// BenchmarkKernelTimerWheel measures raw event throughput of the DES
// kernel: schedule-and-fire chains with no process switches.
func BenchmarkKernelTimerWheel(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	n := 0
	var tick func()
	t := sim.Time(0)
	tick = func() {
		n++
		if n < b.N {
			t += 10
			env.Schedule(t, tick)
		}
	}
	b.ResetTimer()
	env.Schedule(0, tick)
	env.Run()
}

// BenchmarkKernelProcessSwitch measures the cost of a full process
// park/resume cycle (two channel handoffs plus calendar traffic).
func BenchmarkKernelProcessSwitch(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	env.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkFairShareSolver measures the max-min solver with 512 concurrent
// flows over a shared bottleneck joining and leaving.
func BenchmarkFairShareSolver(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		link := fab.NewPipe("link", 1e10, 0)
		for f := 0; f < 512; f++ {
			f := f
			env.Go(fmt.Sprintf("f%d", f), func(p *sim.Proc) {
				p.Sleep(sim.Duration(f) * 1000)
				fab.Transfer(p, []*sim.Pipe{link}, 1e7, 0)
			})
		}
		env.Run()
	}
}

// BenchmarkCacheLookup measures the LRU page cache hit path.
func BenchmarkCacheLookup(b *testing.B) {
	b.ReportAllocs()
	c := cache.New(cache.Config{BlockSize: 1 << 20, Capacity: 1 << 30})
	c.Insert(1, 0, 1<<30, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) << 20
		if hit, _ := c.Lookup(1, off, 1<<20); hit == 0 {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheFlushClean measures an fsync/close of a clean file while
// other files hold dirty blocks: the flush must cost the file's own dirty
// blocks (none), so ns/op stays flat from 1k to 64k resident blocks.
func BenchmarkCacheFlushClean(b *testing.B) {
	for _, resident := range []int64{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			b.ReportAllocs()
			c := cache.New(cache.Config{BlockSize: 4096, Capacity: (resident + 8) * 4096})
			c.Insert(1, 0, 8*4096, false)
			for f := uint64(2); f < 66; f++ {
				c.Insert(f, 0, resident/64*4096, true)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r := c.FlushFileRanges(1); r != nil {
					b.Fatal("clean file flushed dirty ranges")
				}
			}
		})
	}
}

// BenchmarkIORFlowLevel measures a full flow-level IOR run (64 nodes, 44
// ppn — 2816 rank flows through the Lassen gateway).
func BenchmarkIORFlowLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := storagesim.New()
		cl, err := s.Cluster("Lassen", 64)
		if err != nil {
			b.Fatal(err)
		}
		mounts := storagesim.MountAll(storagesim.VASTOnLassen(cl), cl)
		res, err := storagesim.RunIOR(s.Env, mounts, storagesim.IORConfig{
			Workload: storagesim.Scientific, BlockSize: 1 << 20, TransferSize: 1 << 20,
			Segments: 3000, ProcsPerNode: 44, ReorderTasks: true, Dir: "/b",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WriteBW/1e9, "sim-GB/s")
	}
}

// BenchmarkIOROpLevel measures a full op-level (fsync) IOR run.
func BenchmarkIOROpLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := storagesim.New()
		cl, err := s.Cluster("Wombat", 1)
		if err != nil {
			b.Fatal(err)
		}
		mounts := storagesim.MountAll(storagesim.VASTOnWombat(cl), cl)
		res, err := storagesim.RunIOR(s.Env, mounts, storagesim.IORConfig{
			Workload: storagesim.Scientific, BlockSize: 1 << 20, TransferSize: 1 << 20,
			Segments: 64, ProcsPerNode: 32, Fsync: true, Dir: "/b",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WriteBW/1e9, "sim-GB/s")
	}
}

// BenchmarkDLIOResNet measures a full ResNet-50 DLIO run at 4 nodes.
func BenchmarkDLIOResNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := storagesim.New()
		cl, err := s.Cluster("Lassen", 4)
		if err != nil {
			b.Fatal(err)
		}
		mounts := storagesim.MountAll(storagesim.GPFSOnLassen(cl), cl)
		rec := storagesim.NewTraceRecorder()
		res, err := storagesim.RunDLIO(s.Env, mounts, storagesim.ResNet50Config(), rec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AppSamplesPerSec, "sim-samples/s")
	}
}

// BenchmarkTraceReplay measures projecting a recorded ResNet-50 trace onto
// GPFS.
func BenchmarkTraceReplay(b *testing.B) {
	// Record once outside the timed loop.
	s := storagesim.New()
	cl, err := s.Cluster("Lassen", 2)
	if err != nil {
		b.Fatal(err)
	}
	rec := storagesim.NewTraceRecorder()
	if _, err := storagesim.RunDLIO(s.Env,
		storagesim.MountAll(storagesim.VASTOnLassen(cl), cl),
		storagesim.ResNet50Config(), rec); err != nil {
		b.Fatal(err)
	}
	spans := rec.Spans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2 := storagesim.New()
		cl2, err := s2.Cluster("Lassen", 2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := storagesim.ReplayTrace(s2.Env,
			storagesim.MountAll(storagesim.GPFSOnLassen(cl2), cl2),
			spans, storagesim.ReplayConfig{}, storagesim.NewTraceRecorder())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup, "speedup")
	}
}

// BenchmarkAblationUnifyFS sweeps UnifyFS's placement and I/O-server
// policies (UF1 in DESIGN.md).
func BenchmarkAblationUnifyFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := storagesim.AblationUnifyFS(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 4 {
			b.Fatal("unifyfs ablation incomplete")
		}
	}
}
