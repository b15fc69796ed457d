// Deployment tuning: the system-administrator view. Compare the same VAST
// hardware behind the two deployments the paper measured (NFS over a TCP
// gateway vs NFS over RDMA with nconnect and multipathing), then sweep the
// knobs an administrator controls — nconnect and the CBox↔DBox enclosure
// fabric — to see where each deployment's ceiling comes from. This is the
// paper's Section VII admin takeaway plus its stated future work, runnable
// on a laptop.
package main

import (
	"fmt"
	"log"

	storagesim "storagesim"
)

func main() {
	fmt.Println("Per-node VAST bandwidth by deployment (2 nodes, full ppn):")
	tcpW, tcpR := vastPerNode("Lassen", nil)
	fmt.Printf("  NFS/TCP via gateway:          write %5.2f GB/s  read %5.2f GB/s\n", tcpW, tcpR)
	rdmaW, rdmaR := vastPerNode("Wombat", nil)
	fmt.Printf("  NFS/RDMA nconnect+multipath:  write %5.2f GB/s  read %5.2f GB/s\n", rdmaW, rdmaR)
	fmt.Printf("  -> RDMA advantage: write %.1fx, read %.1fx (paper: up to 8x)\n\n", rdmaW/tcpW, rdmaR/tcpR)

	fmt.Println("nconnect sweep (Wombat, single node, sequential read):")
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		n := n
		_, r := vastPerNode("Wombat", func(cfg *storagesim.VASTConfig) {
			type setter interface{ SetConnections(int) }
			cfg.Transport.(setter).SetConnections(n)
		})
		fmt.Printf("  nconnect=%2d: %6.2f GB/s per node\n", n, r)
	}
	fmt.Println("  -> returns diminish once the connection pool stops being the")
	fmt.Println("     narrowest pipe on the path.")

	fmt.Println("\nEnclosure fabric sweep (Wombat, 8 nodes, random read aggregate):")
	for _, gbps := range []float64{3.125, 6.25, 12.5, 25} {
		gbps := gbps
		agg := vastAggregate8("Wombat", func(cfg *storagesim.VASTConfig) {
			cfg.FabricBWPerDBox = gbps * 1e9
		})
		fmt.Printf("  %6.3f GB/s per DBox: %6.1f GB/s aggregate\n", gbps, agg)
	}
	fmt.Println("  -> the paper hypothesized the 2x50Gb enclosure links cap")
	fmt.Println("     scalability; the sweep confirms the aggregate tracks them.")
}

// vastPerNode runs write and read IOR at two nodes and returns per-node
// GB/s. mutate customizes the VAST config (nil for stock deployments).
func vastPerNode(machine string, mutate func(*storagesim.VASTConfig)) (write, read float64) {
	const nodes = 2
	run := func(wl storagesim.IORConfig) storagesim.IORResult {
		s := storagesim.New()
		cl, err := s.Cluster(machine, nodes)
		if err != nil {
			log.Fatal(err)
		}
		dep, err := storagesim.Deploy(cl, "vast", mutate)
		if err != nil {
			log.Fatal(err)
		}
		wl.BlockSize, wl.TransferSize, wl.Segments = 1<<20, 1<<20, 3000
		wl.ProcsPerNode, wl.ReorderTasks, wl.Dir = 44, true, "/tuning"
		res, err := storagesim.RunIOR(s.Env, dep.Mounts, wl)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	w := run(storagesim.IORConfig{Workload: storagesim.Scientific})
	r := run(storagesim.IORConfig{Workload: storagesim.Analytics})
	return w.WriteBW / 1e9 / nodes, r.ReadBW / 1e9 / nodes
}

// vastAggregate8 runs the ML workload at 8 nodes of machine with a mutated
// config and returns aggregate GB/s.
func vastAggregate8(machine string, mutate func(*storagesim.VASTConfig)) float64 {
	s := storagesim.New()
	cl, err := s.Cluster(machine, 8)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := storagesim.Deploy(cl, "vast", mutate)
	if err != nil {
		log.Fatal(err)
	}
	res, err := storagesim.RunIOR(s.Env, dep.Mounts, storagesim.IORConfig{
		Workload: storagesim.ML, BlockSize: 1 << 20, TransferSize: 1 << 20,
		Segments: 3000, ProcsPerNode: 48, ReorderTasks: true, Dir: "/tuning",
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.ReadBW / 1e9
}
