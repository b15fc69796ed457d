package experiments

import (
	"fmt"

	"storagesim/internal/cluster"
	"storagesim/internal/dlio"
	"storagesim/internal/ior"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/trace"
	"storagesim/internal/vast"
)

// TableI reprints the paper's cluster table.
func TableI() Table {
	t := Table{
		ID:     "table1",
		Title:  "Clusters used for experiments",
		Header: []string{"Name", "Nodes", "CPU", "GPU", "RAM", "Arch", "Network"},
	}
	for _, m := range cluster.Machines() {
		t.Rows = append(t.Rows, []string{
			m.Name,
			fmt.Sprint(m.Nodes), fmt.Sprint(m.CPUsPerNode), fmt.Sprint(m.GPUsPerNode),
			fmt.Sprint(m.RAMGB), m.Arch, m.Network,
		})
	}
	return t
}

// RunIOROnce builds the machine+fs testbed with the given node count and
// runs one fully explicit IOR configuration on it — the entry point for
// cmd/iorbench and ad-hoc experiments.
func RunIOROnce(machine string, fs FS, nodes int, cfg ior.Config) (ior.Result, error) {
	res, _, err := RunIORWithBottlenecks(machine, fs, nodes, cfg, 0)
	return res, err
}

// RunIORWithBottlenecks is RunIOROnce with utilization accounting: it also
// returns the topN busiest pipes of the run — the simulator's direct
// answer to "what limited this number?".
func RunIORWithBottlenecks(machine string, fs FS, nodes int, cfg ior.Config, topN int) (ior.Result, []sim.PipeUtil, error) {
	tb, err := iorTestbed(machine, fs, nodes, cfg)
	if err != nil {
		return ior.Result{}, nil, err
	}
	if topN > 0 {
		tb.Fab.EnableAccounting()
	}
	res, err := ior.Run(tb.Env, tb.Mounts, cfg)
	if err != nil {
		return ior.Result{}, nil, err
	}
	var top []sim.PipeUtil
	if topN > 0 {
		top = tb.Fab.TopUtilized(topN)
	}
	return res, top, nil
}

// iorTestbed builds the testbed an IOR entry point runs cfg on. It rejects
// a per-operation read phase with reordered tasks on a node-local file
// system across nodes: each rank would open a file another node wrote,
// which its own node cannot see.
func iorTestbed(machine string, fs FS, nodes int, cfg ior.Config) (*cluster.Testbed, error) {
	tb, err := buildTestbed(machine, fs, nodes, nil)
	if err != nil {
		return nil, err
	}
	if tb.NodeLocal && nodes > 1 && cfg.PerOp() && cfg.ReorderTasks && cfg.Workload != ior.Scientific {
		return nil, fmt.Errorf("experiments: %s is node-local: a per-operation %s read phase with reordered tasks reads files other nodes wrote (run on one node or without task reordering)",
			fs, cfg.Workload)
	}
	return tb, nil
}

// RunDLIOOnce builds the Lassen testbed for fs and runs one DLIO
// configuration, returning the result and the recorded trace — the entry
// point for cmd/dliobench.
func RunDLIOOnce(fs FS, nodes int, cfg dlio.Config) (dlio.Result, *trace.Recorder, error) {
	return dlioPoint(fs, nodes, cfg, 1, cfg.Seed)
}

// iorPoint runs one IOR configuration once and returns the bandwidth of
// the phase the workload measures, in GB/s.
func iorPoint(machine string, fs FS, nodes, ppn int, wl ior.Workload, segments int, fsync bool, derate float64, seed uint64, mutate func(*vast.Config)) (float64, error) {
	tb, err := buildTestbed(machine, fs, nodes, mutate)
	if err != nil {
		return 0, err
	}
	if derate < 1 && tb.Derate != nil {
		tb.Derate(derate)
	}
	res, err := ior.Run(tb.Env, tb.Mounts, ior.Config{
		Workload:     wl,
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     segments,
		ProcsPerNode: ppn,
		Fsync:        fsync,
		ReorderTasks: true,
		Seed:         seed,
		Dir:          "/ior",
	})
	if err != nil {
		return 0, err
	}
	bw := res.WriteBW
	if wl != ior.Scientific {
		bw = res.ReadBW
	}
	return bw / 1e9, nil
}

// iorSeries sweeps xs (node or proc counts) with reps repetitions and
// returns a series of mean aggregate GB/s with stddev error bars.
func iorSeries(name, machine string, fs FS, xs []int, point func(x int, derate float64, seed uint64) (float64, error), opts Options) (stats.Series, error) {
	s := stats.Series{Name: name}
	rng := stats.NewRNG(opts.Seed ^ hashString(name))
	spread := contentionSpread(machine, fs)
	for _, x := range xs {
		x := x
		vals, err := runReps(opts.Reps,
			func(rep int) float64 { return derateFactor(rng, rep, spread) },
			func(rep int, f float64) (float64, error) {
				return point(x, f, opts.Seed+uint64(rep))
			})
		if err != nil {
			return s, err
		}
		mean, dev := summarizeReps(vals)
		s.Append(float64(x), mean, dev)
	}
	return s, nil
}

// hashString mixes a name into a seed (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// workloadTitle maps IOR workloads to the paper's panel names.
func workloadTitle(wl ior.Workload) string {
	switch wl {
	case ior.Scientific:
		return "scientific simulations (sequential write)"
	case ior.Analytics:
		return "data analytics (sequential read)"
	default:
		return "ML applications (random read)"
	}
}

// Fig2a reproduces Figure 2a: IOR scalability on Lassen (44 ppn, 1→128
// nodes, 1 MiB transfers, 3000 segments ≈ 129 GB/node), VAST (NFS/TCP)
// against GPFS, one panel per workload.
func Fig2a(opts Options) ([]Panel, error) {
	opts = opts.withDefaults()
	segments := 3000
	var panels []Panel
	for _, wl := range []ior.Workload{ior.Scientific, ior.Analytics, ior.ML} {
		panel := Panel{
			ID:     fmt.Sprintf("fig2a-%s", wl),
			Title:  "Lassen scalability: " + workloadTitle(wl),
			XLabel: "nodes",
			YLabel: "aggregate GB/s",
		}
		for _, fs := range []FS{VAST, GPFS} {
			fs := fs
			wl := wl
			s, err := iorSeries(string(fs), "Lassen", fs, nodesSweep(opts.Quick),
				func(x int, f float64, seed uint64) (float64, error) {
					return iorPoint("Lassen", fs, x, 44, wl, segments, false, f, seed, nil)
				}, opts)
			if err != nil {
				return nil, err
			}
			panel.Series = append(panel.Series, s)
		}
		panels = append(panels, panel)
	}
	return panels, nil
}

// Fig2b reproduces Figure 2b: IOR scalability on Wombat (48 ppn, 1→8
// nodes), VAST (NFS/RDMA, nconnect=16, multipath) against node-local NVMe.
func Fig2b(opts Options) ([]Panel, error) {
	opts = opts.withDefaults()
	segments := 3000
	var panels []Panel
	for _, wl := range []ior.Workload{ior.Scientific, ior.Analytics, ior.ML} {
		panel := Panel{
			ID:     fmt.Sprintf("fig2b-%s", wl),
			Title:  "Wombat scalability: " + workloadTitle(wl),
			XLabel: "nodes",
			YLabel: "aggregate GB/s",
		}
		for _, fs := range []FS{VAST, NVMe} {
			fs := fs
			wl := wl
			s, err := iorSeries(string(fs), "Wombat", fs, wombatSweep(opts.Quick),
				func(x int, f float64, seed uint64) (float64, error) {
					return iorPoint("Wombat", fs, x, 48, wl, segments, false, f, seed, nil)
				}, opts)
			if err != nil {
				return nil, err
			}
			panel.Series = append(panel.Series, s)
		}
		panels = append(panels, panel)
	}
	return panels, nil
}

// fig3Case describes one Figure 3 sub-figure.
type fig3Case struct {
	sub     string
	machine string
	systems []FS
}

// Fig3 reproduces Figure 3: single-node tests with fsync on writes,
// scaling processes 1→32, on all four machines. Each sub-figure yields a
// write panel (scientific, fsync) and a read panel (data analytics).
func Fig3(opts Options) ([]Panel, error) {
	opts = opts.withDefaults()
	cases := []fig3Case{
		{"a", "Lassen", []FS{VAST, GPFS}},
		{"b", "Quartz", []FS{VAST, Lustre}},
		{"c", "Ruby", []FS{VAST, Lustre}},
		{"d", "Wombat", []FS{VAST, NVMe}},
	}
	// 32 segments of 1 MiB per rank keep the op-level run short while still
	// reaching steady state.
	const segments = 32
	var panels []Panel
	for _, c := range cases {
		for _, phase := range []ior.Workload{ior.Scientific, ior.Analytics} {
			kind := "write+fsync"
			if phase == ior.Analytics {
				kind = "read"
			}
			panel := Panel{
				ID:     fmt.Sprintf("fig3%s-%s", c.sub, kind),
				Title:  fmt.Sprintf("%s single node, %s", c.machine, kind),
				XLabel: "processes",
				YLabel: "GB/s",
			}
			for _, fs := range c.systems {
				fs := fs
				phase := phase
				machine := c.machine
				s, err := iorSeries(string(fs), machine, fs, procsSweep(opts.Quick),
					func(x int, f float64, seed uint64) (float64, error) {
						return iorPoint(machine, fs, 1, x, phase, segments, true, f, seed, nil)
					}, opts)
				if err != nil {
					return nil, err
				}
				panel.Series = append(panel.Series, s)
			}
			panels = append(panels, panel)
		}
	}
	return panels, nil
}
