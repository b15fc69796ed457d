// Quickstart: build a simulated Lassen cluster, deploy VAST behind its
// NFS/TCP gateway and GPFS on the InfiniBand SAN, run a small IOR job on
// both, and print the aggregate bandwidths — the 30-second tour of the
// public API.
package main

import (
	"fmt"
	"log"

	storagesim "storagesim"
)

func main() {
	const nodes = 4

	label := map[string]string{"vast": "VAST (NFS/TCP gateway)", "gpfs": "GPFS (IB SAN)"}
	for _, fs := range []string{"vast", "gpfs"} {
		// Every run gets its own simulation: virtual time, bandwidth fabric
		// and cluster are all rebuilt, so runs are independent and
		// reproducible.
		s := storagesim.New()
		cl, err := s.Cluster("Lassen", nodes)
		if err != nil {
			log.Fatal(err)
		}

		dep, err := storagesim.Deploy(cl, fs, nil)
		if err != nil {
			log.Fatal(err)
		}

		res, err := storagesim.RunIOR(s.Env, dep.Mounts, storagesim.IORConfig{
			Workload:     storagesim.Analytics, // sequential write + read
			BlockSize:    1 << 20,              // IOR -b 1m
			TransferSize: 1 << 20,              // IOR -t 1m
			Segments:     256,                  // IOR -s 256
			ProcsPerNode: 44,                   // full Lassen nodes
			ReorderTasks: true,                 // don't read your own writes
			Dir:          "/quickstart",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %d nodes: write %6.2f GB/s, read %6.2f GB/s\n",
			label[fs], nodes, res.WriteBW/1e9, res.ReadBW/1e9)
	}

	fmt.Println("\nThe TCP gateway caps each VAST client at one connection's worth")
	fmt.Println("(~1.1 GB/s per node) while GPFS streams at the pagepool limit —")
	fmt.Println("the mechanism behind Figure 2a of the paper.")
}
