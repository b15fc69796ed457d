package lustre

import (
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// Redundancy declaration (repair.Protected). The LC Lustre deployments
// protect each OSS's OSTs with RAID (raidz2-class parity): losing an OSS
// hands its OSTs to an HA partner and triggers a resilver that reads
// surviving strips and writes reconstructed ones through the shared OST
// pool, where the repair flows contend with foreground I/O. The
// redundancy unit is an OSS's slice of the OST pool.

// lustreTolerance is the concurrent OSS losses the parity layout absorbs
// (double parity).
const lustreTolerance = 2

// RepairScheme implements repair.Protected.
func (s *System) RepairScheme() repair.Scheme {
	return repair.Scheme{Kind: repair.DeclusteredRAID, Tolerance: lustreTolerance, ServersHoldData: true}
}

// SetUnitRebuild implements repair.Protected: count failed OSS i as
// fraction frac resilvered when deriving pooled capacity.
func (s *System) SetUnitRebuild(i int, frac float64) {
	if s.servers.SetRebuilt(i, frac) {
		s.applyHealth()
	}
}

// UnitBytes implements repair.Protected: files stripe evenly over the
// OSTs, so an OSS's slice is the namespace's live bytes over the OSS
// count.
func (s *System) UnitBytes(i int) float64 {
	return float64(s.ns.TotalBytes()) / float64(s.cfg.OSSCount)
}

// RepairPath implements repair.Protected: the resilver reads surviving
// strips from the OST pool and writes reconstructed ones back.
func (s *System) RepairPath(i int) []*sim.Pipe {
	return []*sim.Pipe{s.pool.ReadPipe(), s.pool.WritePipe()}
}

var _ repair.Protected = (*System)(nil)
