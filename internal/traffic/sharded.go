package traffic

import (
	"fmt"
	"math"

	"storagesim/internal/fsapi"
	"storagesim/internal/resilience"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/trace"
)

// Sharded execution: the same open-loop multi-tenant engine, but spread
// over a domain-partitioned cluster. Each Rack is one sim.Group shard — its
// own Env, fabric and backend instance — and racks advance concurrently
// under the group's conservative synchronization. Tenants span the whole
// cluster: every rack carries its slice of each tenant's arrival stream,
// and a configurable fraction of requests are *remote* — their data lives
// on another rack (placement by request hash), so they are forwarded over
// the inter-rack link, served by the owning rack's backend, and the reply
// crosses the link again. Remote traffic is the coupling surface that makes
// the partition a single simulation rather than R independent ones.

// Rack describes one shard of a sharded deployment.
type Rack struct {
	// Shard is the rack's slot in the domain group (its Env drives every
	// process of this rack).
	Shard *sim.Shard
	// Fab is the rack's fabric, used for per-tenant delivered-byte
	// attribution; nil disables goodput accounting for this rack.
	Fab *sim.Fabric
	// Nodes is the rack's compute-node count.
	Nodes int
	// Mount mints a fresh client mount for the named tenant on rack-local
	// node i, exactly like the mount callback of Run.
	Mount func(tenant string, node int) fsapi.Client
}

// ShardedConfig parameterizes a sharded traffic run.
type ShardedConfig struct {
	Config
	// RemoteFraction is the probability that a request's data lives on
	// another rack (uniform over the others), drawn per request from a
	// deterministic placement stream. 0 decouples the racks entirely;
	// realistic scale-out deployments sit somewhere below 1 - 1/racks.
	RemoteFraction float64
}

// RackReport is the rack-local accounting of one rack: arrivals generated
// on the rack (including its forwarded remote requests) and bytes served by
// the rack's own backend.
type RackReport struct {
	Rack    int
	Name    string
	Tenants []TenantReport
}

// ShardedReport is the outcome of a sharded run: per-rack accounting plus
// the cluster-wide merge (tenant sums, sketches merged in rack order).
type ShardedReport struct {
	Duration sim.Duration
	Racks    []RackReport
	Tenants  []TenantReport
}

// Digest renders the full observable outcome with float bit patterns — the
// event-order-sensitive witness the lockstep tests compare across executor
// layouts and against the sequential oracle.
func (r ShardedReport) Digest() string {
	out := fmt.Sprintf("window=%v", r.Duration)
	for _, rr := range r.Racks {
		out += fmt.Sprintf(" [%s", rr.Name)
		for _, tr := range rr.Tenants {
			out += fmt.Sprintf(" %s:%d/%d/%d/%d:%d/%d/%d/%d/%d/%d/%d:%016x:%016x/%016x/%016x",
				tr.Name, tr.Offered, tr.Shed, tr.Completed, tr.InFlightEnd,
				tr.ShedAdmission, tr.ShedBrownout, tr.ShedBreaker, tr.DeadlineMiss,
				tr.Retries, tr.Hedges, tr.HedgeWins,
				math.Float64bits(tr.DeliveredBytes),
				math.Float64bits(tr.P50.Seconds()),
				math.Float64bits(tr.P95.Seconds()),
				math.Float64bits(tr.P99.Seconds()))
		}
		out += "]"
	}
	return out
}

// Validate extends Config.Validate with the placement
// fraction.
func (c ShardedConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if !(c.RemoteFraction >= 0 && c.RemoteFraction <= 1) {
		return fmt.Errorf("remote fraction %g out of [0,1]", c.RemoteFraction)
	}
	return nil
}

// RunSharded executes the spec across the racks of a domain group and
// reports per-rack and merged SLO outcomes. The group must be fresh (its
// barrier clock at zero) with every rack's Shard registered on it and
// inter-rack links declared (required when RemoteFraction > 0). RunSharded
// drives the group itself; the caller shuts it down afterwards.
//
// Each rack runs the same engine as Run on its own Env. Breakers are per
// tenant×rack — each rack is its own backend instance, which is exactly
// the per-tenant×backend granularity the policy wants. With Drain, the
// group keeps advancing past the window until no rack has a request open;
// a forwarded request counts as open on its home rack until its reply
// lands. Observer and OutcomeObserver are called after the run, never from
// two racks at once: each rack's events are buffered and delivered in
// order of their instant, ties broken by rack index, each rack's own order
// kept — with one rack, exactly Run's live order.
func RunSharded(g *sim.Group, racks []Rack, cfg ShardedConfig) ShardedReport {
	if err := cfg.Validate(); err != nil {
		panic("traffic: " + err.Error())
	}
	if len(racks) == 0 {
		panic("traffic: need at least one rack")
	}
	if g.Now() != 0 {
		panic("traffic: sharded run needs a fresh group")
	}
	m := &mesh{shards: make([]*sim.Shard, len(racks)), engs: make([]*engine, len(racks))}
	if len(racks) > 1 {
		m.remote = cfg.RemoteFraction // with one rack there is nowhere else to place data
	}
	total := 0
	for r := range racks {
		if racks[r].Nodes <= 0 {
			panic("traffic: rack needs at least one node")
		}
		m.shards[r] = racks[r].Shard
		total += racks[r].Nodes
	}
	traces := make([][]stamped[trace.Event], len(racks))
	outcomes := make([][]stamped[OutcomeEvent], len(racks))
	base := 0
	for r := range racks {
		rk := &racks[r]
		env := rk.Shard.Env()
		eng := startSpec(env, &cfg.Config, rk.Nodes, rk.Mount, m, r, base, total)
		m.engs[r] = eng
		if cfg.Observer != nil {
			eng.obs = func(ev trace.Event) { traces[r] = append(traces[r], stamped[trace.Event]{env.Now(), ev}) }
		}
		if cfg.OutcomeObserver != nil {
			eng.outObs = func(ev OutcomeEvent) { outcomes[r] = append(outcomes[r], stamped[OutcomeEvent]{env.Now(), ev}) }
		}
		// Remote-service mounts come after the rack's generator mounts, one
		// per tenant, and only when remote traffic exists.
		if m.remote > 0 {
			for ti, st := range eng.tenants {
				st.remoteMount = tagged(rk.Mount(st.spec.Name+"@rem", ti%rk.Nodes), st.spec.Name)
			}
		}
		base += rk.Nodes
	}

	g.Run(sim.Time(0).Add(cfg.Duration))
	for cfg.Drain && m.busy() {
		g.Run(g.Now().Add(cfg.Duration))
	}
	deliver(traces, cfg.Observer)
	deliver(outcomes, cfg.OutcomeObserver)

	rep := ShardedReport{Duration: cfg.Duration}
	for r := range racks {
		rep.Racks = append(rep.Racks, RackReport{Rack: r, Name: racks[r].Shard.Name(), Tenants: m.engs[r].report(racks[r].Fab)})
	}
	for ti := range cfg.Spec.Tenants {
		t := &cfg.Spec.Tenants[ti]
		merged := TenantReport{Name: t.Name, SLOP99: t.SLOP99, Sketch: stats.NewSketch(cfg.SketchAlpha)}
		for r := range racks {
			tr := &rep.Racks[r].Tenants[ti]
			merged.Offered += tr.Offered
			merged.Shed += tr.Shed
			merged.Completed += tr.Completed
			merged.ShedAdmission += tr.ShedAdmission
			merged.ShedBrownout += tr.ShedBrownout
			merged.ShedBreaker += tr.ShedBreaker
			merged.DeadlineMiss += tr.DeadlineMiss
			merged.Retries += tr.Retries
			merged.Hedges += tr.Hedges
			merged.HedgeWins += tr.HedgeWins
			merged.Breaker.Opens += tr.Breaker.Opens
			merged.Breaker.HalfOpens += tr.Breaker.HalfOpens
			merged.Breaker.Closes += tr.Breaker.Closes
			merged.InFlightEnd += tr.InFlightEnd
			merged.DeliveredBytes += tr.DeliveredBytes
			merged.PayloadBytes += tr.PayloadBytes
			merged.Sketch.Merge(tr.Sketch)
			merged.Latencies = append(merged.Latencies, tr.Latencies...)
		}
		merged.setQuantiles()
		rep.Tenants = append(rep.Tenants, merged)
	}
	return rep
}

// stamped is one buffered observer event and the rack-local instant it
// was produced at.
type stamped[T any] struct {
	at sim.Time
	v  T
}

// deliver hands every rack's buffered events to fn in order of instant,
// ties broken by rack index, each rack's own order kept.
func deliver[T any](racks [][]stamped[T], fn func(T)) {
	pos := make([]int, len(racks))
	for {
		best := -1
		for r, buf := range racks {
			if pos[r] < len(buf) && (best < 0 || buf[pos[r]].at < racks[best][pos[best]].at) {
				best = r
			}
		}
		if best < 0 {
			return
		}
		fn(racks[best][pos[best]].v)
		pos[best]++
	}
}

// mesh is the cross-rack view of a sharded run: every rack's shard and
// engine, and the fraction of requests placed on another rack.
type mesh struct {
	shards []*sim.Shard
	engs   []*engine
	remote float64
}

// busy reports whether any rack has a request open.
func (m *mesh) busy() bool {
	for _, eng := range m.engs {
		if eng.inflight > 0 {
			return true
		}
	}
	return false
}

// forwarder places one shard's admitted requests: with probability
// m.remote a request's data lives on another rack, uniform over the
// others, drawn from a placement stream independent of the arrivals.
type forwarder struct {
	m        *mesh
	rack, ti int
	place    *stats.RNG
	paths    [reqFiles]string
}

// forwarder builds the placement state of tenant ti's shard on a rack's
// node.
func (m *mesh) forwarder(rack, ti, node int, name string, seed uint64) *forwarder {
	f := &forwarder{m: m, rack: rack, ti: ti, place: stats.NewRNG(seed)}
	for i := range f.paths {
		f.paths[i] = fmt.Sprintf("/traffic/%s/rem-r%dn%d/f%d", name, rack, node, i)
	}
	return f
}

// target draws the owning rack of the next admitted request, -1 for the
// home rack: one uniform for the remote decision, one for the rack.
func (f *forwarder) target() int {
	u := f.place.Uint64()
	v := f.place.Uint64()
	if float64(u>>11)/(1<<53) >= f.m.remote {
		return -1
	}
	t := int(v % uint64(len(f.m.engs)-1))
	if t >= f.rack {
		t++
	}
	return t
}

// forward sends an admitted request to the rack owning its data. It is
// served there on the tenant's remote-service mount and completes through
// finish when the reply lands back home, so its latency includes two link
// crossings plus the remote service time, measured on the home clock.
//
// The resilience layer applies to rack-local requests only: a forwarded
// request's attempts would need cross-domain cancellation (an abort token
// is single-Env state), so a forwarded request runs the direct serve and
// hands back its breaker probe grant unused. Breakers still observe every
// local outcome, which is where the backend they guard actually serves.
func (sh *shard) forward(rec *request, idx uint64, target int) {
	f := sh.fwd
	sh.st.breaker.Release(rec.probe)
	rec.path = f.paths[idx]
	home, owner := f.m.shards[f.rack], f.m.shards[target]
	peer := f.m.engs[target].tenants[f.ti]
	home.Send(owner, 0, func() {
		owner.Env().Go(sh.reqName+"@rem", func(rp *sim.Proc) {
			serve(rp, peer.remoteMount, rec)
			owner.Send(home, 0, func() { sh.finish(rec, home.Env().Now(), resilience.Outcome{OK: true}) })
		})
	})
}

// placementSeed derives the per-shard placement RNG seed, independent of
// the arrival stream so turning remote traffic on does not perturb
// arrival times.
func placementSeed(seed uint64, tenant, shard int) uint64 {
	return stats.Mix64(shardSeed(seed, tenant, shard) ^ 0x706c6163656d6e74) // "placemnt"
}
