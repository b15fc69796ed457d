package lustre

// OSS failure and recovery. The model pools the object storage servers'
// NICs and OSTs into aggregate pipes, so losing an OSS removes its share
// of both pools (in a real deployment its OSTs fail over to an HA partner,
// which then serves double duty — the same aggregate-bandwidth loss). The
// per-stream stripe-1 caps stay nominal: a surviving OSS still serves one
// file at full speed.
//
// Capacity changes route through the pipes' health factors
// (sim.Pipe.SetHealthFactor), so a fail/recover pair restores the exact
// nominal pool capacity.

// applyHealth scales the pooled pipes and the OST pool to the OSSes'
// healthy fraction combined with the prevailing cluster-wide derates. A
// failed OSS mid-resilver contributes its rebuilt fraction (repair.go), so
// pool capacity recovers incrementally instead of snapping back.
func (s *System) applyHealth() {
	frac := s.servers.Fraction()
	s.ossUp.SetHealthFactor(frac * s.linkHealth)
	s.ossDown.SetHealthFactor(frac * s.linkHealth)
	s.pool.SetHealthFactor(frac * s.mediaHealth)
}

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the
// OSSes (MDS failures are not modeled — opens would block, not degrade).
func (s *System) FaultServers() int { return s.servers.Len() }

// FailServer implements faults.Target: OSS i leaves the pools.
func (s *System) FailServer(i int) error {
	changed, err := s.servers.Fail(i)
	if changed {
		s.applyHealth()
	}
	return err
}

// RecoverServer implements faults.Target.
func (s *System) RecoverServer(i int) {
	if s.servers.Recover(i) {
		s.applyHealth()
	}
}

// FaultUnits implements faults.Target: one redundancy unit per OSS.
func (s *System) FaultUnits() int { return s.servers.Len() }

// FailUnit implements faults.Target: the unit is the OSS's OST group.
func (s *System) FailUnit(i int) error { return s.FailServer(i) }

// RecoverUnit implements faults.Target.
func (s *System) RecoverUnit(i int) { s.RecoverServer(i) }

// SetLinkHealth implements faults.Target: derates the OSS NIC pools to
// fraction f of nominal.
func (s *System) SetLinkHealth(f float64) {
	s.linkHealth = f
	s.applyHealth()
}

// SetMediaHealth implements faults.Target: derates the OST pool (a raidz2
// group resilvering behind a surviving OSS).
func (s *System) SetMediaHealth(f float64) {
	s.mediaHealth = f
	s.applyHealth()
}
