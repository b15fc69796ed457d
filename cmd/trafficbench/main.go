// Command trafficbench drives a storage deployment with the open-loop
// multi-tenant traffic engine: millions of logical clients aggregated into
// per-tenant arrival processes, per-tenant SLO accounting, optional fault
// schedules, and admission control with queue-depth backpressure.
//
// Examples:
//
//	trafficbench -machine Wombat -fs vast -nodes 4 -duration 2s
//	trafficbench -machine Ruby -fs lustre -spec tenants.json -load 8
//	trafficbench -machine Wombat -fs vast -faults sched.json -duration 5s
//	trafficbench -print-spec > tenants.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"storagesim/internal/cliflags"
	"storagesim/internal/experiments"
	"storagesim/internal/faults"
	"storagesim/internal/traffic"
	"storagesim/internal/units"
)

func main() {
	tb := cliflags.AddTestbed("Wombat", 4)
	specFile := flag.String("spec", "", "JSON tenant spec (default: the built-in 4-tenant 1M-client mix)")
	duration := flag.String("duration", "2s", "open-loop window (Go duration or bare seconds)")
	seed := flag.Uint64("seed", 0x5eed, "seed")
	load := flag.Float64("load", 1, "offered-load multiplier applied to every tenant's arrival rate")
	faultsFlag := cliflags.AddFaults()
	printSpec := flag.Bool("print-spec", false, "print the built-in tenant spec as JSON and exit")
	racks := cliflags.AddRacks(1, "split the cluster into this many racks (domain shards), -nodes per rack")
	prof := cliflags.AddProfile()
	flag.Parse()
	defer prof.Start()()

	spec := experiments.SaturationTenants()
	if *printSpec {
		out, err := spec.MarshalJSON()
		if err != nil {
			cliflags.Fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			cliflags.Fatal(err)
		}
		spec, err = traffic.ParseSpec(data)
		if err != nil {
			cliflags.Fatal(err)
		}
	}

	tb.Check()
	window, err := units.ParseDuration(*duration)
	if err != nil {
		cliflags.Fatal(err)
	}
	sched, err := faultsFlag.Schedule()
	if err != nil {
		cliflags.Fatal(err)
	}

	cfg := traffic.Config{Spec: spec, Duration: window, Seed: *seed, LoadScale: *load}
	var rep traffic.Report
	var applied []faults.Applied
	if racks.Racks > 1 {
		if faultsFlag.Set() {
			cliflags.Fatal(fmt.Errorf("-faults is not supported with -racks > 1 (use the chaos gate's sharded storms)"))
		}
		srep, err := experiments.RunShardedTraffic(tb.Machine, experiments.FS(tb.FS),
			racks.Racks, tb.Nodes, racks.Domains, traffic.ShardedConfig{Config: cfg, RemoteFraction: racks.Remote})
		if err != nil {
			cliflags.Fatal(err)
		}
		fmt.Printf("machine=%s fs=%s racks=%d nodes/rack=%d domains=%d remote=%g window=%v load=%gx seed=%#x\n",
			tb.Machine, tb.FS, racks.Racks, tb.Nodes, racks.Domains, racks.Remote, window, *load, *seed)
		for _, rr := range srep.Racks {
			var offered, completed uint64
			for _, tr := range rr.Tenants {
				offered += tr.Offered
				completed += tr.Completed
			}
			fmt.Printf("  %s: offered=%d completed=%d\n", rr.Name, offered, completed)
		}
		rep = traffic.Report{Duration: srep.Duration, Tenants: srep.Tenants}
	} else {
		var err error
		rep, applied, err = experiments.RunTrafficWithFaults(tb.Machine, experiments.FS(tb.FS), tb.Nodes, cfg, sched)
		if err != nil {
			cliflags.Fatal(err)
		}
		fmt.Printf("machine=%s fs=%s nodes=%d window=%v load=%gx seed=%#x\n",
			tb.Machine, tb.FS, tb.Nodes, window, *load, *seed)
	}
	for _, a := range applied {
		fmt.Printf("  fault: %v\n", a)
	}
	fmt.Printf("%-8s %10s %8s %8s %8s %12s %10s %10s %10s %10s\n",
		"tenant", "offered", "shed", "done", "inflight", "goodput", "p50", "p99", "slo", "attain")
	for _, tr := range rep.Tenants {
		slo, attain := "-", "-"
		if tr.SLOP99 > 0 {
			slo = tr.SLOP99.String()
			if !math.IsNaN(tr.SLOAttainment) {
				attain = fmt.Sprintf("%.1f%%", 100*tr.SLOAttainment)
			}
		}
		fmt.Printf("%-8s %10d %8d %8d %8d %12s %10v %10v %10s %10s\n",
			tr.Name, tr.Offered, tr.Shed, tr.Completed, tr.InFlightEnd,
			units.BPS(tr.GoodputBps(rep.Duration)), tr.P50, tr.P99, slo, attain)
	}
}
