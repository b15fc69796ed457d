package unifyfs

import (
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// Redundancy declaration (repair.Protected). UnifyFS keeps exactly one
// copy of every chunk on the writing node's local device — there is no
// re-replication and no parity — so the scheme is None: a node failure
// loses every chunk the node owns, and the repair manager reports those
// bytes as lost instead of spawning a rebuild.

// RepairScheme implements repair.Protected.
func (s *System) RepairScheme() repair.Scheme {
	return repair.Scheme{Kind: repair.None, Tolerance: 0, ServersHoldData: true}
}

// SetUnitRebuild implements repair.Protected. With no redundancy there is
// nothing to rebuild from; the manager never calls it.
func (s *System) SetUnitRebuild(i int, frac float64) {}

// UnitBytes implements repair.Protected: the bytes of every chunk node i
// owns. Map iteration order is irrelevant — integer addition commutes.
func (s *System) UnitBytes(i int) float64 {
	chunks := int64(0)
	for _, file := range s.owners {
		for _, owner := range file {
			if owner == i {
				chunks++
			}
		}
	}
	return float64(chunks * s.cfg.ChunkBytes)
}

// RepairPath implements repair.Protected: no scheme, no repair flows.
func (s *System) RepairPath(i int) []*sim.Pipe { return nil }

var _ repair.Protected = (*System)(nil)
