// Trace projection: the capacity-planning workflow built on the
// DFTracer-style traces. Train ResNet-50 on the TCP-throttled VAST
// deployment, record the trace, then replay the same trace — identical
// compute durations, identical read dependencies — against GPFS and
// against the RDMA VAST deployment on Wombat, and compare the runtimes the
// application would have seen. This is the "which file system should this
// workload use?" question answered with evidence instead of intuition.
package main

import (
	"fmt"
	"log"

	storagesim "storagesim"
)

func main() {
	const nodes = 2

	// 1. Record: run the workload where it lives today.
	fmt.Println("Recording ResNet-50 on VAST (NFS/TCP, Lassen)...")
	spans, base := record(nodes)
	fmt.Printf("  runtime %.2fs, %.1f%% of I/O hidden, %d spans captured\n\n",
		base.Runtime.Seconds(), 100*base.Analysis.HiddenFraction(), len(spans))

	// 2. Project: replay the trace on the alternatives.
	targets := []struct{ fs, machine string }{
		{"vast", "Lassen"}, // sanity: projecting onto itself
		{"gpfs", "Lassen"},
		{"vast", "Wombat"}, // the RDMA deployment
	}
	fmt.Println("Projected runtimes (same compute, same dependencies):")
	for _, tgt := range targets {
		res := project(spans, tgt.fs, tgt.machine, nodes)
		fmt.Printf("  %-6s on %-7s runtime %6.2fs  speedup %5.2fx  stalls %6.3fs\n",
			tgt.fs, tgt.machine, res.Runtime.Seconds(), res.Speedup,
			res.Analysis.NonOverlapIO.Seconds())
	}
	fmt.Println("\nFor this low-I/O workload every deployment keeps the GPUs fed —")
	fmt.Println("the paper's conclusion that ResNet-50 can move to VAST and relieve")
	fmt.Println("GPFS holds under projection too.")
}

// record trains ResNet-50 on Lassen's VAST and returns the trace.
func record(nodes int) ([]storagesim.TraceSpan, storagesim.DLIOResult) {
	s := storagesim.New()
	cl, err := s.Cluster("Lassen", nodes)
	if err != nil {
		log.Fatal(err)
	}
	mounts := storagesim.MountAll(storagesim.VASTOnLassen(cl), cl)
	rec := storagesim.NewTraceRecorder()
	res, err := storagesim.RunDLIO(s.Env, mounts, storagesim.ResNet50Config(), rec)
	if err != nil {
		log.Fatal(err)
	}
	return rec.Spans(), res
}

// project replays the trace on the named deployment.
func project(spans []storagesim.TraceSpan, fs, machine string, nodes int) storagesim.ReplayResult {
	s := storagesim.New()
	cl, err := s.Cluster(machine, nodes)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := storagesim.Deploy(cl, fs, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := storagesim.ReplayTrace(s.Env, dep.Mounts, spans, storagesim.ReplayConfig{}, storagesim.NewTraceRecorder())
	if err != nil {
		log.Fatal(err)
	}
	return res
}
