// Package chaos generates seeded randomized fault storms for the repair
// subsystem's fuzzing gate. A Storm is an ordinary faults.Schedule — a
// mix of server failures and recoveries, unit (enclosure/array) failures,
// link and media derates — drawn from a deterministic RNG, so a fixed
// seed reproduces the identical storm byte-for-byte on every machine.
//
// Generation is constrained so no storm event is ever refused: every
// backend's failure domain (faults.Domain) refuses, with an error the
// injector reports, to fail its last healthy server or unit, and a
// recovery delivered mid-rebuild is intentionally swallowed by the repair
// manager (the rebuild is what restores health), so the generator's view
// of which servers are up can lag reality. The safety rule that survives that lag
// is: never let the set of *ever-failed* indices reach the whole pool —
// at least one server and one unit per pool never fails, so at least one
// is always healthy no matter how recoveries interleave with rebuilds.
package chaos

import (
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
)

// Profile bounds one storm for one backend.
type Profile struct {
	// Target names the registered fault target; empty addresses the only
	// registered one.
	Target string
	// Servers is the backend's failable server count (faults.Target).
	Servers int
	// Units is the backend's redundancy unit count; 0 generates no
	// unit-fail events.
	Units int
	// UnitsAreServers marks backends where unit i and server i are the
	// same physical pool (GPFS, Lustre, UnifyFS, nvmelocal), so both event
	// kinds share one ever-failed budget. VAST leaves it false: CNodes and
	// DBoxes fail independently.
	UnitsAreServers bool
	// Horizon is the window the storm's events land in.
	Horizon sim.Duration
	// Events is the number of randomized events to draw (the closing
	// restores and recoveries are appended on top).
	Events int
}

// withDefaults fills the zero values.
func (pr Profile) withDefaults() Profile {
	if pr.Horizon <= 0 {
		pr.Horizon = 40 * time.Millisecond
	}
	if pr.Events <= 0 {
		pr.Events = 10
	}
	return pr
}

// Storm draws a randomized fault schedule for the profile. The same seed
// and profile produce the identical schedule.
func Storm(seed uint64, pr Profile) faults.Schedule {
	pr = pr.withDefaults()
	rng := stats.NewRNG(seed)
	g := &generator{pr: pr, rng: rng,
		serverDown: make([]bool, pr.Servers), serverEver: make([]bool, pr.Servers),
		unitDown: make([]bool, pr.Units), unitEver: make([]bool, pr.Units)}
	if pr.UnitsAreServers {
		// One pool: share the down/ever state so the budget is joint.
		g.unitDown, g.unitEver = g.serverDown, g.serverEver
	}
	var s faults.Schedule
	at := sim.Duration(0)
	step := pr.Horizon / sim.Duration(pr.Events+1)
	for i := 0; i < pr.Events; i++ {
		// Strictly increasing offsets keep the generator's view aligned
		// with delivery order.
		at += step/2 + sim.Duration(rng.Int63n(int64(step)))
		if ev, ok := g.draw(at); ok {
			s.Events = append(s.Events, ev)
		}
	}
	// Close the storm: restore the cluster-wide derates and recover every
	// server and unit the view still has down, so the run ends in (or
	// rebuilding toward) a steady state. The closing events must not fire
	// before any storm event (a node left parked forever would stall the
	// foreground workload), so the close lands at or after the last draw.
	end := pr.Horizon
	if at > end {
		end = at
	}
	s.Events = append(s.Events,
		faults.Event{At: end, Kind: faults.LinkRestore, Target: pr.Target},
		faults.Event{At: end, Kind: faults.MediaRestore, Target: pr.Target})
	for i := 0; i < pr.Servers; i++ {
		if g.serverDown[i] {
			s.Events = append(s.Events,
				faults.Event{At: end, Kind: faults.ServerRecover, Target: pr.Target, Index: i})
			g.serverDown[i] = false
		}
	}
	for i := 0; i < pr.Units; i++ {
		if g.unitDown[i] {
			s.Events = append(s.Events,
				faults.Event{At: end, Kind: faults.UnitRecover, Target: pr.Target, Index: i})
			g.unitDown[i] = false
		}
	}
	return s
}

// generator tracks the storm's view of the cluster while drawing events.
type generator struct {
	pr  Profile
	rng *stats.RNG
	// serverDown/unitDown: failed according to the schedule so far (the
	// view; recoveries swallowed by a running rebuild make reality lag).
	// serverEver/unitEver: ever failed — the safety budget.
	serverDown, serverEver []bool
	unitDown, unitEver     []bool
}

// draw picks one event. ok is false when no action is currently legal
// (all failure budgets spent and nothing to recover — keep the slot empty
// rather than force an illegal event).
func (g *generator) draw(at sim.Duration) (faults.Event, bool) {
	type action func() (faults.Event, bool)
	actions := []action{
		func() (faults.Event, bool) { return g.fail(at, faults.ServerFail, g.serverDown, g.serverEver) },
		func() (faults.Event, bool) { return g.recover(at, faults.ServerRecover, g.serverDown) },
		func() (faults.Event, bool) {
			if g.pr.Units == 0 {
				return faults.Event{}, false
			}
			return g.fail(at, faults.UnitFail, g.unitDown, g.unitEver)
		},
		func() (faults.Event, bool) {
			if g.pr.Units == 0 {
				return faults.Event{}, false
			}
			return g.recover(at, faults.UnitRecover, g.unitDown)
		},
		func() (faults.Event, bool) {
			return faults.Event{At: at, Kind: faults.LinkDerate, Target: g.pr.Target,
				Factor: 0.4 + 0.55*g.rng.Float64()}, true
		},
		func() (faults.Event, bool) {
			return faults.Event{At: at, Kind: faults.MediaDerate, Target: g.pr.Target,
				Factor: 0.4 + 0.55*g.rng.Float64()}, true
		},
		func() (faults.Event, bool) {
			return faults.Event{At: at, Kind: faults.LinkRestore, Target: g.pr.Target}, true
		},
		func() (faults.Event, bool) {
			return faults.Event{At: at, Kind: faults.MediaRestore, Target: g.pr.Target}, true
		},
	}
	// Weight failures and recoveries over derates: index into an uneven
	// table. One retry per remaining action keeps the draw deterministic.
	weights := []int{3, 3, 3, 3, 1, 1, 1, 1}
	for tries := 0; tries < 8; tries++ {
		pick := g.rng.Intn(weightSum(weights))
		idx := 0
		for i, w := range weights {
			if pick < w {
				idx = i
				break
			}
			pick -= w
		}
		if ev, ok := actions[idx](); ok {
			return ev, true
		}
	}
	return faults.Event{}, false
}

func weightSum(w []int) int {
	n := 0
	for _, v := range w {
		n += v
	}
	return n
}

// fail draws a failure respecting the ever-failed budget: a candidate is
// any index not down in the view that is either already in the budget or
// fits without exhausting the pool.
func (g *generator) fail(at sim.Duration, kind faults.Kind, down, ever []bool) (faults.Event, bool) {
	budget := len(down) - 1 // at least one index never fails
	spent := 0
	for _, e := range ever {
		if e {
			spent++
		}
	}
	var cands []int
	for i := range down {
		if down[i] {
			continue
		}
		if ever[i] || spent < budget {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return faults.Event{}, false
	}
	i := cands[g.rng.Intn(len(cands))]
	down[i], ever[i] = true, true
	return faults.Event{At: at, Kind: kind, Target: g.pr.Target, Index: i}, true
}

// recover draws a recovery of an index the view has down.
func (g *generator) recover(at sim.Duration, kind faults.Kind, down []bool) (faults.Event, bool) {
	var cands []int
	for i := range down {
		if down[i] {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return faults.Event{}, false
	}
	i := cands[g.rng.Intn(len(cands))]
	down[i] = false
	return faults.Event{At: at, Kind: kind, Target: g.pr.Target, Index: i}, true
}
