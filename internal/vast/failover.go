package vast

// CNode failure, recovery and failover. Section III-A.2 of the paper
// describes the CNodes as stateless containers: "the VAST system state is
// firstly written into multiple SSDs, then acknowledged and finally
// committed and thus the containers (which host the CNodes) are considered
// stateless." The operational consequence — any CNode can serve any
// client, so a failure only costs capacity, never data or availability —
// is modeled here: failing a CNode re-pins its clients to the survivors
// and parks its NIC and reduction bandwidth; recovering it restores the
// exact pre-fault capacities and re-balances the client pinning.
//
// Capacity changes route through the pipes' health factors
// (sim.Pipe.SetHealthFactor), so a fail/recover pair is a true no-op on
// the fabric: parked components sit at sim.ParkedBps and come back to
// their nominal capacity, not to whatever a cumulative derate left behind.

// FailCNode takes CNode i out of service. Clients pinned to it fail over
// to the next healthy CNode and are marked stale: with a retry policy
// configured, their next operation pays the NFS retransmit delay before
// using the new path. The multipath pools lose the node's share. Failing
// an already-failed CNode is a no-op; an out-of-range index or the last
// healthy CNode is refused with an error (the cluster would be down,
// which no experiment models).
//
// Op-level workloads resolve their path per operation and fail over after
// the retransmit penalty. A flow-level stream that is mid-flight across
// the failed server keeps its pinned path (the model cannot migrate a live
// flow) and crawls at the parked capacity — mirroring an NFS hard-mount
// retrying until its server returns. Inject failures around flow
// boundaries or use op-level runs for failure studies.
func (s *System) FailCNode(i int) error {
	changed, err := s.cnodes.Fail(i)
	if !changed {
		return err
	}
	// The failed server's NIC and reduction engine serve nobody: park their
	// pipes so in-flight flows drain away from it rather than dividing by
	// zero.
	s.cnodeNIC[i].SetHealthFactor(0)
	s.reduce[i].SetHealthFactor(0)
	s.applyPoolHealth()
	// Stateless failover: re-pin every client that was on the dead server.
	for _, cl := range s.clients {
		if cl.cnode == i {
			cl.cnode = s.nextHealthy(i)
			cl.stale = true
		}
	}
	return nil
}

// RecoverCNode returns a failed CNode to service and re-balances the
// client pinning: every mount whose home CNode (its round-robin assignment
// at mount time) is the recovered server moves back to it, as the
// automounter's VIP redistribution does. Moved clients are marked stale
// and pay the retransmit penalty on their next operation. Recovering a
// healthy CNode is a no-op.
func (s *System) RecoverCNode(i int) {
	if !s.restoreCapacity(i) {
		return
	}
	for _, cl := range s.clients {
		if cl.home == i && cl.cnode != i {
			cl.cnode = i
			cl.stale = true
		}
	}
}

// RestoreCNode returns a failed CNode to service, capacity only: clients
// stay where the failover left them until they remount. RecoverCNode is
// the full recovery including client re-balancing.
func (s *System) RestoreCNode(i int) { s.restoreCapacity(i) }

// restoreCapacity un-parks CNode i's pipes, reporting whether i was failed.
func (s *System) restoreCapacity(i int) bool {
	if !s.cnodes.Recover(i) {
		return false
	}
	s.cnodeNIC[i].SetHealthFactor(s.linkHealth)
	s.reduce[i].SetHealthFactor(s.linkHealth)
	s.applyPoolHealth()
	return true
}

// applyPoolHealth scales the multipath pools to the healthy-CNode fraction
// combined with any cluster-wide link derate.
func (s *System) applyPoolHealth() {
	if s.cnodePool == nil {
		return
	}
	frac := s.cnodes.Fraction() * s.linkHealth
	s.cnodePool.SetHealthFactor(frac)
	s.reducePool.SetHealthFactor(frac)
}

// HealthyCNodes reports how many CNodes are in service.
func (s *System) HealthyCNodes() int { return s.cnodes.Healthy() }

// nextHealthy returns the first in-service CNode after i (wrapping).
func (s *System) nextHealthy(i int) int {
	for step := 1; step <= s.cfg.CNodes; step++ {
		j := (i + step) % s.cfg.CNodes
		if !s.cnodes.Failed(j) {
			return j
		}
	}
	panic("vast: no healthy CNodes") // the domain never fails its last CNode
}

// --- faults.Target ---

// FaultServers implements faults.Target: the failable servers are the
// CNodes.
func (s *System) FaultServers() int { return s.cfg.CNodes }

// FailServer implements faults.Target.
func (s *System) FailServer(i int) error { return s.FailCNode(i) }

// RecoverServer implements faults.Target: full recovery with client
// re-balancing.
func (s *System) RecoverServer(i int) { s.RecoverCNode(i) }

// FaultUnits implements faults.Target: one redundancy unit per DBox.
func (s *System) FaultUnits() int { return s.cfg.DBoxes }

// FailUnit implements faults.Target.
func (s *System) FailUnit(i int) error { return s.FailDBox(i) }

// RecoverUnit implements faults.Target.
func (s *System) RecoverUnit(i int) { s.RecoverDBox(i) }

// SetLinkHealth implements faults.Target: derates every healthy CNode's
// NIC and reduction engine, the multipath pools and the CBox↔DBox fabric
// to fraction f of nominal. Failed CNodes stay parked; they pick up the
// prevailing link health when they recover.
func (s *System) SetLinkHealth(f float64) {
	s.linkHealth = f
	for i := 0; i < s.cfg.CNodes; i++ {
		if s.cnodes.Failed(i) {
			continue
		}
		s.cnodeNIC[i].SetHealthFactor(f)
		s.reduce[i].SetHealthFactor(f)
	}
	s.applyPoolHealth()
	s.applyDBoxHealth()
}

// SetMediaHealth implements faults.Target: derates the SCM staging tier
// and the QLC backbone (SSD wear, a rebuilding stripe group), composed
// with the DBox fraction (repair.go).
func (s *System) SetMediaHealth(f float64) {
	s.mediaHealth = f
	s.applyDBoxHealth()
}
