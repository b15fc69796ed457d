package nvmelocal

import (
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// Redundancy declaration (repair.Protected). A node-local NVMe scratch
// file system has no redundancy at all — the paper's Wombat nodes run a
// plain md-RAID0 of consumer SSDs — so the scheme is None: a node failure
// loses the node's whole local namespace, and the repair manager reports
// those bytes as lost instead of spawning a rebuild.

// RepairScheme implements repair.Protected.
func (s *System) RepairScheme() repair.Scheme {
	return repair.Scheme{Kind: repair.None, Tolerance: 0, ServersHoldData: true}
}

// SetUnitRebuild implements repair.Protected. With no redundancy there is
// nothing to rebuild from; the manager never calls it.
func (s *System) SetUnitRebuild(i int, frac float64) {}

// UnitBytes implements repair.Protected: the live bytes of node i's
// private namespace.
func (s *System) UnitBytes(i int) float64 {
	if i < 0 || i >= len(s.order) {
		return 0
	}
	return float64(s.nodes[s.order[i]].ns.TotalBytes())
}

// RepairPath implements repair.Protected: no scheme, no repair flows.
func (s *System) RepairPath(i int) []*sim.Pipe { return nil }

var _ repair.Protected = (*System)(nil)
