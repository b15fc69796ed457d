// Scalability: reproduce the shape of the paper's Figure 2 from the public
// API — sweep node counts on Lassen (VAST/TCP vs GPFS) and Wombat
// (VAST/RDMA vs node-local NVMe) for the three workload personalities, and
// print per-node and aggregate bandwidth so the saturation points are
// visible.
package main

import (
	"fmt"
	"log"

	storagesim "storagesim"
)

func main() {
	fmt.Println("Figure 2a — Lassen, 44 ppn, 1 MiB transfers, 129 GB per node")
	sweep("Lassen", []int{1, 4, 16, 64, 128}, 44, "vast", "gpfs")

	fmt.Println("\nFigure 2b — Wombat, 48 ppn")
	sweep("Wombat", []int{1, 2, 4, 8}, 48, "vast", "nvme")
}

// sweep runs the three workloads over the node counts for each file system.
func sweep(machine string, nodes []int, ppn int, fss ...string) {
	workloads := []struct {
		name string
		wl   storagesim.IORConfig
	}{
		{"seq-write (scientific)", storagesim.IORConfig{Workload: storagesim.Scientific}},
		{"seq-read (analytics)", storagesim.IORConfig{Workload: storagesim.Analytics}},
		{"random-read (ML)", storagesim.IORConfig{Workload: storagesim.ML}},
	}
	for _, w := range workloads {
		fmt.Printf("  %s\n", w.name)
		for _, fsName := range fss {
			fmt.Printf("    %-5s", fsName)
			for _, n := range nodes {
				s := storagesim.New()
				cl, err := s.Cluster(machine, n)
				if err != nil {
					log.Fatal(err)
				}
				dep, err := storagesim.Deploy(cl, fsName, nil)
				if err != nil {
					log.Fatal(err)
				}
				cfg := w.wl
				cfg.BlockSize = 1 << 20
				cfg.TransferSize = 1 << 20
				cfg.Segments = 3000 // the paper's cache-defeating 129 GB/node
				cfg.ProcsPerNode = ppn
				cfg.ReorderTasks = true
				cfg.Dir = "/scal"
				res, err := storagesim.RunIOR(s.Env, dep.Mounts, cfg)
				if err != nil {
					log.Fatal(err)
				}
				bw := res.WriteBW
				if cfg.Workload != storagesim.Scientific {
					bw = res.ReadBW
				}
				fmt.Printf("  %3dn:%7.1f GB/s", n, bw/1e9)
			}
			fmt.Println()
		}
	}
}
