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

// Config parameterizes one traffic run.
type Config struct {
	// Spec is the validated multi-tenant description.
	Spec Spec
	// Duration is the open-loop generation window; requests in flight when
	// it closes are counted but not waited for.
	Duration sim.Duration
	// Seed drives every arrival stream (per-shard substreams are derived
	// with Mix64, so tenants and shards are independent).
	Seed uint64
	// LoadScale multiplies every tenant's offered rate — the x axis of a
	// saturation sweep. 0 means 1.
	LoadScale float64
	// SketchAlpha is the latency sketch's relative-error bound (0 =
	// stats.DefaultSketchAlpha).
	SketchAlpha float64
	// KeepLatencies retains every completed request's latency in seconds,
	// in completion order — the exact-oracle input of the differential
	// tests. Off by default: the whole point of the sketch is not keeping
	// millions of float64s.
	KeepLatencies bool
	// Observer, when set, receives one trace event per completed request
	// (issue time, tenant, op, bytes, measured latency, node, path) — the
	// recording side of the trace pipeline: write the stream out with
	// trace.WriteJSONL and any run becomes a replayable, auditable trace.
	Observer func(trace.Event)
	// Drain keeps the simulation running after the generation window
	// closes until every admitted request completes, instead of abandoning
	// the in-flight tail. A recording meant for fidelity audits must drain:
	// requests the window cut off contended for bandwidth in the original
	// run but would be missing from the recorded stream, so an undrained
	// recording replays against less load than it was measured under.
	Drain bool
	// OutcomeObserver, when set, receives one event per request outcome —
	// completions and every shed/failure class — which is how the
	// retry-storm study buckets goodput timelines without touching the
	// engine's aggregates.
	OutcomeObserver func(OutcomeEvent)
}

// OutcomeKind classifies one request's fate.
type OutcomeKind string

// Outcome kinds.
const (
	// OutcomeCompleted: served within its deadline (or no deadline set).
	OutcomeCompleted OutcomeKind = "completed"
	// OutcomeDeadlineMiss: admitted, but every attempt missed the deadline
	// (or the retry budget/breaker cut the request short).
	OutcomeDeadlineMiss OutcomeKind = "deadline-miss"
	// OutcomeShedAdmission: refused by the per-tenant inflight cap.
	OutcomeShedAdmission OutcomeKind = "shed-admission"
	// OutcomeShedBrownout: refused by the engine-wide brownout tiers.
	OutcomeShedBrownout OutcomeKind = "shed-brownout"
	// OutcomeShedBreaker: refused by an open circuit breaker.
	OutcomeShedBreaker OutcomeKind = "shed-breaker"
)

// OutcomeEvent is one request's terminal accounting record.
type OutcomeEvent struct {
	// At is the outcome instant (arrival time for sheds, completion or
	// failure time for admitted requests).
	At sim.Time
	// Tenant names the traffic class.
	Tenant string
	// Kind classifies the outcome.
	Kind OutcomeKind
	// Bytes is the request payload (delivered only when completed).
	Bytes int64
	// Retries and Hedges are the resilience effort spent on the request.
	Retries, Hedges int
}

// TenantReport is the per-tenant outcome of a run.
type TenantReport struct {
	Name string
	// Offered counts generated arrivals; Shed the ones that terminated
	// without completing (all shed classes plus deadline misses — kept as
	// the sum for compatibility); Completed the ones fully served inside
	// the window. Offered - Shed - Completed requests were still in flight
	// at the end.
	Offered, Shed, Completed uint64
	// The Shed sum split by cause: per-tenant inflight-cap refusals,
	// engine-wide brownout refusals, open-breaker refusals, and admitted
	// requests whose every attempt missed the deadline.
	// Shed = ShedAdmission + ShedBrownout + ShedBreaker + DeadlineMiss.
	ShedAdmission, ShedBrownout, ShedBreaker, DeadlineMiss uint64
	// Retries, Hedges and HedgeWins count the resilience layer's effort:
	// re-attempts after deadline misses, speculative twins launched, and
	// requests the twin won.
	Retries, Hedges, HedgeWins uint64
	// Breaker counts the tenant's circuit-breaker state transitions.
	Breaker resilience.BreakerStats
	// InFlightEnd is the admission count still open when the window closed.
	InFlightEnd int
	// DeliveredBytes integrates the tenant's fabric traffic (tagged flows),
	// including partial progress of still-running requests.
	DeliveredBytes float64
	// PayloadBytes sums the request payload of completed requests — the
	// application-visible delivered data, the quantity recorded traces
	// count and fidelity audits compare (fabric bytes can include
	// replication and read-amplification the recording never saw).
	PayloadBytes float64
	// P50/P95/P99 are sketch-estimated completion-latency percentiles.
	P50, P95, P99 sim.Duration
	// SLOP99 echoes the tenant's target; SLOAttainment is the fraction of
	// completed requests at or under it (NaN when no SLO was declared or
	// nothing completed).
	SLOP99        sim.Duration
	SLOAttainment float64
	// Sketch is the full latency sketch (seconds), for merging or extra
	// quantiles. Latencies carries the raw values when
	// Config.KeepLatencies was set.
	Sketch    *stats.Sketch
	Latencies []float64
}

// OfferedRate returns the realized offered request rate over the window.
func (r *TenantReport) OfferedRate(d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(r.Offered) / d.Seconds()
}

// GoodputBps returns the tenant's delivered bandwidth over the window.
func (r *TenantReport) GoodputBps(d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return r.DeliveredBytes / d.Seconds()
}

// Report is the outcome of one traffic run, tenants in spec order.
type Report struct {
	Duration sim.Duration
	Tenants  []TenantReport
}

// Run executes the spec against a storage system and reports per-tenant
// SLO outcomes. mount mints a fresh client mount for the named tenant on
// compute node `node` (0-based, < nodes); the engine creates one mount per
// tenant×node shard and — when the mount supports fsapi.FlowTagger — tags
// it so the tenant's fabric bytes are attributed. fab may be nil when no
// delivered-byte accounting is wanted.
//
// One arrival tick per tenant×node shard carries 1/nodes-th of the
// tenant's aggregate arrival stream (see arrivalGen for why the merge is
// exact for Poisson-family processes), so process count is
// O(in-flight requests) regardless of Tenant.Clients.
//
// Run drives env itself (RunUntil the window's end) and must be called
// with a quiescent env; fault schedules armed on the same env beforehand
// compose naturally — their timers fire inside the window.
func Run(env *sim.Env, fab *sim.Fabric, nodes int, mount func(tenant string, node int) fsapi.Client, cfg Config) Report {
	if err := cfg.Validate(); err != nil {
		panic("traffic: " + err.Error())
	}
	if nodes <= 0 {
		panic("traffic: need at least one node")
	}
	eng := startSpec(env, &cfg, nodes, mount, nil, 0, 0, nodes)
	eng.obs, eng.outObs = cfg.Observer, cfg.OutcomeObserver
	env.RunUntil(sim.Time(0).Add(cfg.Duration))
	if cfg.Drain {
		env.Run()
	}
	return Report{Duration: cfg.Duration, Tenants: eng.report(fab)}
}

// Validate reports the first problem with the run configuration. Run and
// RunSharded panic with its message; callers taking user input check it
// first.
func (c Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return fmt.Errorf("invalid spec: %w", err)
	}
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("need a positive duration, got %v", c.Duration)
	case !(c.LoadScale >= 0) || math.IsInf(c.LoadScale, 1):
		return fmt.Errorf("load scale %g must be finite and non-negative", c.LoadScale)
	case !(c.SketchAlpha >= 0 && c.SketchAlpha < 1):
		return fmt.Errorf("sketch alpha %g out of [0,1)", c.SketchAlpha)
	}
	return nil
}

// startSpec builds the engine of one rack of a spec-driven run on env and
// arms a shard per tenant×node. The rack's nodes are base..base+nodes-1 of
// total cluster-wide nodes: each shard carries 1/total of its tenant's
// load, and its arrival and placement seeds depend on its cluster-wide
// node index only. m is nil for Run; in a sharded run it holds the rack's
// peers, whose count splits every in-flight and brownout cap evenly
// (rounded up), so admission state never crosses a domain boundary.
//
// Mounts are minted per tenant, then per node, in that order, so a
// one-rack sharded run reproduces Run's byte stream exactly.
func startSpec(env *sim.Env, cfg *Config, nodes int, mount func(tenant string, node int) fsapi.Client, m *mesh, rack, base, total int) *engine {
	parts, rackTag := 1, ""
	if m != nil {
		parts, rackTag = len(m.engs), fmt.Sprintf("r%d", rack)
	}
	eng := &engine{env: env, brown: cfg.Spec.Brownout}
	eng.brown.Capacity = split(eng.brown.Capacity, parts)
	scale := cfg.LoadScale
	if scale == 0 {
		scale = 1
	}
	end := sim.Time(0).Add(cfg.Duration)
	for ti := range cfg.Spec.Tenants {
		t := &cfg.Spec.Tenants[ti]
		st := eng.addTenant(t, split(t.MaxInflight, parts), cfg.SketchAlpha, cfg.KeepLatencies)
		rate := t.AggregateRate() * scale / float64(total)
		for node := 0; node < nodes; node++ {
			cl := tagged(mount(t.Name, node), t.Name)
			src := arrivals{gen: newArrivalGen(t.Arrival, rate, shardSeed(cfg.Seed, ti, base+node)), end: end}
			var fwd *forwarder
			if m != nil && m.remote > 0 {
				fwd = m.forwarder(rack, ti, node, t.Name, placementSeed(cfg.Seed, ti, base+node))
			}
			eng.launch(st, cl, node, src, fmt.Sprintf("traffic/%s/%sreq%d", t.Name, rackTag, node), "/traffic", fwd)
		}
	}
	return eng
}

// split is one part's share of a cap divided evenly (rounded up) over
// parts; 0 (no cap) stays 0.
func split(n, parts int) int {
	if n <= 0 || parts <= 1 {
		return n
	}
	return (n + parts - 1) / parts
}

// report projects the engine's tenants onto report rows; fab, when set,
// supplies each tenant's delivered fabric bytes.
func (eng *engine) report(fab *sim.Fabric) []TenantReport {
	rows := make([]TenantReport, 0, len(eng.tenants))
	for _, st := range eng.tenants {
		tr := TenantReport{
			Name:          st.spec.Name,
			Offered:       st.offered,
			Shed:          st.shed,
			Completed:     st.complete,
			ShedAdmission: st.shedAdmission,
			ShedBrownout:  st.shedBrownout,
			ShedBreaker:   st.shedBreaker,
			DeadlineMiss:  st.deadlineMiss,
			Retries:       st.retries,
			Hedges:        st.hedges,
			HedgeWins:     st.hedgeWins,
			Breaker:       st.breaker.Stats(),
			InFlightEnd:   st.inflight,
			PayloadBytes:  st.payload,
			SLOP99:        st.spec.SLOP99,
			Sketch:        st.sketch,
			Latencies:     st.lats,
		}
		if fab != nil {
			tr.DeliveredBytes = fab.TagBytes(st.spec.Name)
		}
		tr.setQuantiles()
		rows = append(rows, tr)
	}
	return rows
}

// setQuantiles fills the percentiles and SLO attainment from the sketch
// (attainment NaN when no SLO was declared or nothing completed).
func (tr *TenantReport) setQuantiles() {
	tr.P50 = sketchDur(tr.Sketch, 50)
	tr.P95 = sketchDur(tr.Sketch, 95)
	tr.P99 = sketchDur(tr.Sketch, 99)
	tr.SLOAttainment = math.NaN()
	if tr.SLOP99 > 0 && tr.Completed > 0 {
		tr.SLOAttainment = tr.Sketch.FractionBelow(tr.SLOP99.Seconds())
	}
}

// sketchDur converts a sketch quantile (seconds) to a duration, 0 when the
// sketch is empty.
func sketchDur(s *stats.Sketch, p float64) sim.Duration {
	q := s.Quantile(p)
	if math.IsNaN(q) {
		return 0
	}
	return sim.Duration(q * 1e9)
}
