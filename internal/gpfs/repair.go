package gpfs

import (
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// Redundancy declaration (repair.Protected). GPFS on Lassen protects data
// with GPFS Native RAID: parity is declustered across every pdisk behind
// every NSD server, so losing a server degrades bandwidth but not data,
// and the rebuild is pooled — every surviving server reconstructs a slice
// of the missing strips in parallel through the shared RAID pool. The
// redundancy unit is therefore the NSD server's slice of the declustered
// array, and the repair flows cross the RAID pool's own read and write
// pipes, where they contend with foreground I/O.

// gpfsTolerance is the concurrent server losses the declustered layout
// absorbs (8+2p Reed-Solomon in GPFS Native RAID's standard track).
const gpfsTolerance = 2

// RepairScheme implements repair.Protected.
func (s *System) RepairScheme() repair.Scheme {
	return repair.Scheme{Kind: repair.DeclusteredRAID, Tolerance: gpfsTolerance, ServersHoldData: true}
}

// SetUnitRebuild implements repair.Protected: count failed server i as
// fraction frac reconstructed when deriving pooled capacity.
func (s *System) SetUnitRebuild(i int, frac float64) {
	if s.servers.SetRebuilt(i, frac) {
		s.applyHealth()
	}
}

// UnitBytes implements repair.Protected: the declustered layout spreads
// every file evenly, so a server's slice is the namespace's live bytes
// over the server count.
func (s *System) UnitBytes(i int) float64 {
	return float64(s.ns.TotalBytes()) / float64(s.cfg.NSDServers)
}

// RepairPath implements repair.Protected: reconstruction reads surviving
// strips from the pool and writes rebuilt strips back to it, so repair
// flows contend with foreground I/O at the RAID pool in both directions.
func (s *System) RepairPath(i int) []*sim.Pipe {
	return []*sim.Pipe{s.raid.ReadPipe(), s.raid.WritePipe()}
}

var _ repair.Protected = (*System)(nil)
