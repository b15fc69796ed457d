// Command mdbench runs the MDTest-style metadata benchmark against any
// machine/file-system combination: each rank creates a tree of files and
// re-opens a peer's tree, and the tool reports aggregate creates/sec and
// opens/sec.
//
// Example:
//
//	mdbench -machine Lassen -fs gpfs -nodes 4 -ppn 16 -files 256
package main

import (
	"flag"
	"fmt"

	"storagesim/internal/cliflags"
	"storagesim/internal/cluster"
	"storagesim/internal/mdtest"
	"storagesim/internal/sim"
)

func main() {
	tb := cliflags.AddTestbed("Lassen", 1)
	ppn := flag.Int("ppn", 8, "processes per node")
	files := flag.Int("files", 128, "files per rank")
	flag.Parse()
	tb.Check()

	env := sim.NewEnv()
	dep, err := cluster.Build(env, sim.NewFabric(env), tb.Machine, tb.FS, tb.Nodes, nil)
	if err != nil {
		cliflags.Fatal(err)
	}
	res, err := mdtest.Run(env, dep.Mounts, mdtest.Config{
		FilesPerRank: *files,
		ProcsPerNode: *ppn,
		Dir:          "/mdbench",
	})
	if err != nil {
		cliflags.Fatal(err)
	}
	fmt.Printf("machine=%s fs=%s nodes=%d ppn=%d files/rank=%d\n", tb.Machine, tb.FS, tb.Nodes, *ppn, *files)
	fmt.Printf("  creates: %10.0f /s (%v)\n", res.CreatesPerSec, res.CreateTime)
	fmt.Printf("  opens:   %10.0f /s (%v)\n", res.OpensPerSec, res.OpenTime)
	fmt.Printf("  removes: %10.0f /s (%v)\n", res.RemovesPerSec, res.RemoveTime)
}
