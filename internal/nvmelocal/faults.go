package nvmelocal

// Node failure and SSD wear. The failable "servers" are the mounted nodes
// in mount order: failing one parks its NVMe array and page-cache ingest
// pipe (the node is down; a peer reading its data over the interconnect
// crawls at the parked rate until it returns). Register the system with
// the fault injector only after all mounts: FaultServers reports the
// mounted-node count.
//
// SetMediaHealth is the wear model the paper's consumer 970 PRO SSDs
// invite: a worn or thermally-throttled drive serves fraction f of its
// nominal bandwidth.

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the
// mounted nodes (register with the injector after mounting).
func (s *System) FaultServers() int { return s.up.Len() }

// FailServer implements faults.Target: the i-th mounted node (mount
// order) goes down.
func (s *System) FailServer(i int) error {
	changed, err := s.up.Fail(i)
	if changed {
		st := s.nodes[s.order[i]]
		st.dev.SetHealthFactor(0)
		st.memIn.SetHealthFactor(0)
	}
	return err
}

// RecoverServer implements faults.Target.
func (s *System) RecoverServer(i int) {
	if s.up.Recover(i) {
		st := s.nodes[s.order[i]]
		st.dev.SetHealthFactor(s.mediaHealth)
		st.memIn.SetHealthFactor(1)
	}
}

// FaultUnits implements faults.Target: one unit per mounted node (its
// NVMe array).
func (s *System) FaultUnits() int { return s.up.Len() }

// FailUnit implements faults.Target: the unit is the node.
func (s *System) FailUnit(i int) error { return s.FailServer(i) }

// RecoverUnit implements faults.Target.
func (s *System) RecoverUnit(i int) { s.RecoverServer(i) }

// SetLinkHealth implements faults.Target: derates the node interconnect
// used for cross-node copies (no-op without one).
func (s *System) SetLinkHealth(f float64) {
	if s.cfg.Interconnect != nil {
		s.cfg.Interconnect.SetHealthFactor(f)
	}
}

// SetMediaHealth implements faults.Target: derates every healthy node's
// NVMe array (SSD wear). Failed nodes stay parked and pick up the
// prevailing factor when they recover.
func (s *System) SetMediaHealth(f float64) {
	s.mediaHealth = f
	for i, name := range s.order {
		if !s.up.Failed(i) {
			s.nodes[name].dev.SetHealthFactor(f)
		}
	}
}
