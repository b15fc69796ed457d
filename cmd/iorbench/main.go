// Command iorbench runs the simulated IOR benchmark with explicit
// parameters against any machine/file-system combination of the paper's
// testbed.
//
// Examples:
//
//	iorbench -machine Lassen -fs gpfs -nodes 32 -ppn 44 -workload analytics
//	iorbench -machine Wombat -fs vast -nodes 1 -ppn 32 -workload scientific -fsync
//	iorbench -machine Quartz -fs vast -block 1m -xfer 1m -segments 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	storagesim "storagesim"
	"storagesim/internal/cliflags"
	"storagesim/internal/experiments"
	"storagesim/internal/faults"
	"storagesim/internal/ior"
	"storagesim/internal/sim"
	"storagesim/internal/units"
	"storagesim/internal/workloads"
)

func main() {
	tb := cliflags.AddTestbed("Lassen", 1)
	ppn := flag.Int("ppn", 8, "processes per node")
	workload := flag.String("workload", "scientific", "scientific (seq write), analytics (seq read) or ml (random read)")
	block := flag.String("block", "1m", "block size per segment (IOR -b)")
	xfer := flag.String("xfer", "1m", "transfer size (IOR -t)")
	segments := flag.Int("segments", 128, "segments (IOR -s)")
	fsync := flag.Bool("fsync", false, "fsync after every write")
	reorder := flag.Bool("reorder", true, "reorder tasks so readers do not read their own writes (IOR -C)")
	shared := flag.Bool("shared", false, "N-1 shared-file layout (the paper's avoided mode)")
	app := flag.String("app", "", "application preset (cm1, hacc, bdcats, kmeans, oocsort) overriding pattern flags")
	reps := flag.Int("reps", 1, "repetitions")
	seed := flag.Uint64("seed", 42, "seed")
	bottlenecks := flag.Int("bottlenecks", 0, "report the N busiest pipes after the run (what limited the number)")
	faultsFlag := cliflags.AddFaults()
	chaosSpec := flag.String("chaos", "", "run a seeded chaos storm against -fs instead of a benchmark (seed=N, decimal or 0x hex)")
	flag.Parse()

	if *chaosSpec != "" {
		// A storm runs on the file system's home machine, not -machine.
		if err := runChaos(experiments.FS(strings.ToLower(tb.FS)), *chaosSpec); err != nil {
			cliflags.Fatal(err)
		}
		return
	}
	tb.Check()
	sched, err := faultsFlag.Schedule()
	if err != nil {
		cliflags.Fatal(err)
	}

	var cfg storagesim.IORConfig
	if *app != "" {
		w, err := workloads.ByName(*app, *ppn)
		if err != nil {
			cliflags.Fatal(err)
		}
		if w.Kind != workloads.IORKind {
			cliflags.Fatal(fmt.Errorf("%q is a DLIO workload; use dliobench", *app))
		}
		cfg = w.IOR
		fmt.Printf("# %s: %s\n", w.Name, w.Description)
	} else {
		wl, err := parseWorkload(*workload)
		if err != nil {
			cliflags.Fatal(err)
		}
		blockBytes, err := units.ParseBytes(*block)
		if err != nil {
			cliflags.Fatal(err)
		}
		xferBytes, err := units.ParseBytes(*xfer)
		if err != nil {
			cliflags.Fatal(err)
		}
		cfg = storagesim.IORConfig{
			Workload:     wl,
			BlockSize:    int64(blockBytes),
			TransferSize: int64(xferBytes),
			Segments:     *segments,
			ProcsPerNode: *ppn,
			Fsync:        *fsync,
			ReorderTasks: *reorder,
			SharedFile:   *shared,
			Dir:          "/iorbench",
		}
	}

	for rep := 0; rep < *reps; rep++ {
		cfg.Seed = *seed + uint64(rep)
		var (
			res     ior.Result
			top     []sim.PipeUtil
			applied []faults.Applied
			err     error
		)
		if faultsFlag.Set() {
			if *bottlenecks > 0 {
				cliflags.Fatal(fmt.Errorf("-faults and -bottlenecks cannot be combined"))
			}
			res, applied, err = experiments.RunIORWithFaults(tb.Machine, experiments.FS(tb.FS), tb.Nodes, cfg, sched)
		} else {
			res, top, err = experiments.RunIORWithBottlenecks(tb.Machine, experiments.FS(tb.FS), tb.Nodes, cfg, *bottlenecks)
		}
		if err != nil {
			cliflags.Fatal(err)
		}
		fmt.Printf("rep=%d machine=%s fs=%s nodes=%d ppn=%d workload=%s fsync=%v shared=%v\n",
			rep, tb.Machine, tb.FS, tb.Nodes, cfg.ProcsPerNode, cfg.Workload, cfg.Fsync, cfg.SharedFile)
		for _, a := range applied {
			fmt.Printf("  fault: %v\n", a)
		}
		fmt.Printf("  write: %10s aggregate (%v)\n", units.BPS(res.WriteBW), res.WriteTime)
		if cfg.Workload != ior.Scientific {
			fmt.Printf("  read:  %10s aggregate (%v)\n", units.BPS(res.ReadBW), res.ReadTime)
		}
		for i, pu := range top {
			fmt.Printf("  bottleneck %d: %-40s %5.1f%% of %s\n",
				i+1, pu.Name, 100*pu.Utilization, units.BPS(pu.Capacity))
		}
	}
}

// runChaos replays one seeded fault storm on the backend's canonical
// testbed with the invariant suite attached and prints the deterministic
// digest; any invariant violation is fatal. The same seed reproduces the
// storm, the run and the digest byte-for-byte.
func runChaos(fs experiments.FS, spec string) error {
	seed, err := strconv.ParseUint(strings.TrimPrefix(spec, "seed="), 0, 64)
	if err != nil {
		return fmt.Errorf("-chaos: want seed=N, got %q: %v", spec, err)
	}
	rep, err := storagesim.RunChaosStorm(fs, seed, storagesim.ExperimentOptions{Quick: true})
	if err != nil {
		return err
	}
	fmt.Printf("chaos %s/%s seed=%#x\n", rep.Backend, rep.Machine, rep.Seed)
	fmt.Printf("  events delivered: %d\n", rep.Delivered)
	fmt.Printf("  foreground write: %s aggregate\n", units.BPS(rep.WriteBW))
	fmt.Printf("  rebuilds: %d (%s reconstructed)\n", rep.Rebuilds, units.Bytes(int64(rep.RebuiltBytes)))
	fmt.Printf("  losses:   %d (%s lost)\n", rep.Losses, units.Bytes(int64(rep.LostBytes)))
	fmt.Printf("  digest:   %s\n", rep.Digest())
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "  VIOLATION: %s\n", v)
		}
		return fmt.Errorf("%d invariant violation(s)", len(rep.Violations))
	}
	fmt.Println("  invariants: all held")
	return nil
}

func parseWorkload(s string) (ior.Workload, error) {
	switch strings.ToLower(s) {
	case "scientific", "write", "seq-write":
		return ior.Scientific, nil
	case "analytics", "read", "seq-read":
		return ior.Analytics, nil
	case "ml", "random", "random-read":
		return ior.ML, nil
	}
	return 0, fmt.Errorf("unknown workload %q", s)
}
