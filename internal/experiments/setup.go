package experiments

import (
	"storagesim/internal/cluster"
	"storagesim/internal/sim"
	"storagesim/internal/vast"
)

// FS names the storage deployments under test.
type FS string

// Deployment identifiers used across the experiments.
const (
	VAST    FS = "vast"
	GPFS    FS = "gpfs"
	Lustre  FS = "lustre"
	NVMe    FS = "nvme"
	UnifyFS FS = "unifyfs"
)

// buildTestbed instantiates machine+fs with n nodes on a fresh env.
// mutateVAST, when non-nil, adjusts the VAST config before instantiation
// (ablations).
func buildTestbed(machine string, fs FS, n int, mutateVAST func(*vast.Config)) (*cluster.Testbed, error) {
	env := sim.NewEnv()
	return cluster.Build(env, sim.NewFabric(env), machine, string(fs), n, mutateVAST)
}

// contentionSpread is the contention spread of fs on machine: shared
// production systems vary more than dedicated ones.
func contentionSpread(machine string, fs FS) float64 {
	// A pair outside the table reads as dedicated; its testbed build fails.
	if d, _ := cluster.Lookup(machine, string(fs)); d.Shared {
		return sharedSpread
	}
	return dedicatedSpread
}
