package unifyfs

// Node failure and recovery. UnifyFS aggregates the compute nodes' local
// devices, so the failable "servers" are the mounted nodes themselves: a
// failed node's device is parked (chunks it owns are still addressed —
// UnifyFS has no re-replication — so accesses to them crawl at the parked
// rate until the node returns, the user-level analogue of an NFS hard
// mount). Register the system with the fault injector only after all
// mounts: FaultServers reports the mounted-node count.
//
// Capacity changes route through the device's health factor, so a
// fail/recover pair restores the exact nominal device bandwidth.

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the
// mounted nodes (register with the injector after mounting).
func (s *System) FaultServers() int { return s.up.Len() }

// FailServer implements faults.Target: mounted node i goes down.
func (s *System) FailServer(i int) error {
	changed, err := s.up.Fail(i)
	if changed {
		s.nodes[i].dev.SetHealthFactor(0)
	}
	return err
}

// RecoverServer implements faults.Target.
func (s *System) RecoverServer(i int) {
	if s.up.Recover(i) {
		s.nodes[i].dev.SetHealthFactor(s.mediaHealth)
	}
}

// FaultUnits implements faults.Target: one unit per mounted node (its
// local device).
func (s *System) FaultUnits() int { return s.up.Len() }

// FailUnit implements faults.Target: the unit is the node.
func (s *System) FailUnit(i int) error { return s.FailServer(i) }

// RecoverUnit implements faults.Target.
func (s *System) RecoverUnit(i int) { s.RecoverServer(i) }

// SetLinkHealth implements faults.Target: derates the node interconnect
// that carries remote chunk traffic (no-op without one).
func (s *System) SetLinkHealth(f float64) {
	if s.cfg.Interconnect != nil {
		s.cfg.Interconnect.SetHealthFactor(f)
	}
}

// SetMediaHealth implements faults.Target: derates every healthy node's
// local device (SSD wear across the burst-buffer fleet). Failed nodes stay
// parked and pick up the prevailing factor when they recover.
func (s *System) SetMediaHealth(f float64) {
	s.mediaHealth = f
	for i, st := range s.nodes {
		if !s.up.Failed(i) {
			st.dev.SetHealthFactor(f)
		}
	}
}
