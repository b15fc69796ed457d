// Workload matcher: the paper's introduction asks for "a better mapping
// between specific workloads and file systems". This example walks the
// Section III-B application catalogue — CM1, HACC-I/O, BD-CATS, KMeans,
// out-of-core sort, and the DL trainers — runs each on VAST (NFS/TCP) and
// GPFS on a 4-node Lassen slice, and prints a recommendation per
// application, plus metadata rates from the MDTest-style benchmark.
package main

import (
	"fmt"
	"log"
	"sort"

	storagesim "storagesim"
)

const (
	nodes = 4
	ppn   = 16
)

func main() {
	fmt.Printf("Matching Section III-B applications to file systems (%d Lassen nodes):\n\n", nodes)
	cat := storagesim.WorkloadCatalogue(ppn)
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		w := cat[name]
		if w.Kind != storagesim.IORWorkload {
			continue // the DL trainers are covered by examples/deeplearning
		}
		cfg := w.IOR
		cfg.Segments = 64 // keep the demo quick
		vast := runIOR("vast", cfg)
		gpfs := runIOR("gpfs", cfg)
		rec := "GPFS"
		if vast >= 0.8*gpfs {
			rec = "VAST (relieves GPFS contention)"
		}
		fmt.Printf("  %-18s %-52s vast %6.2f GB/s  gpfs %6.2f GB/s  -> %s\n",
			w.Name, w.Description, vast, gpfs, rec)
	}

	fmt.Println("\nMetadata rates (creates/sec, MDTest-style):")
	for _, fs := range []string{"vast", "gpfs"} {
		res := runMD(fs)
		fmt.Printf("  %-5s %9.0f creates/s  %9.0f opens/s\n", fs, res.CreatesPerSec, res.OpensPerSec)
	}
	fmt.Println("\nLow-I/O applications fit the new store; streaming-heavy ones need")
	fmt.Println("the parallel file system until the TCP gateway is upgraded (the")
	fmt.Println("paper's administrator takeaway).")
}

// runIOR executes one preset on the named file system and returns the
// workload's headline bandwidth in GB/s.
func runIOR(fs string, cfg storagesim.IORConfig) float64 {
	s, mounts := lassen(fs)
	res, err := storagesim.RunIOR(s.Env, mounts, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.Workload == storagesim.Scientific {
		return res.WriteBW / 1e9
	}
	return res.ReadBW / 1e9
}

// runMD executes the metadata benchmark.
func runMD(fs string) storagesim.MDTestResult {
	s, mounts := lassen(fs)
	res, err := storagesim.RunMDTest(s.Env, mounts, storagesim.MDTestConfig{
		FilesPerRank: 64, ProcsPerNode: ppn, Dir: "/match",
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// lassen builds a fresh Lassen simulation with fs mounted on every node.
func lassen(fs string) (*storagesim.Simulation, []storagesim.Client) {
	s := storagesim.New()
	cl, err := s.Cluster("Lassen", nodes)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := storagesim.Deploy(cl, fs, nil)
	if err != nil {
		log.Fatal(err)
	}
	return s, dep.Mounts
}
