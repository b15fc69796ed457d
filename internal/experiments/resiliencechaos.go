package experiments

import (
	"fmt"
	"math"
	"time"

	"storagesim/internal/netsim"
	"storagesim/internal/resilience"
	"storagesim/internal/traffic"
)

// Resilience chaos gate: the seeded fault storm of the chaos gate, but
// with the client resilience layer fully armed as the foreground —
// deadlines cancelling transfers mid-flight, budgeted retries re-offering
// work, hedges racing, breakers tripping and probing, brownout tiers
// shedding — all while servers fail, units die and rebuilds contend for
// the fabric. The invariant suite must stay silent: cancellation returns
// bandwidth without over-allocating it, aborted flows never violate the
// nominal-capacity ceiling, and rebuilds still complete or report loss.

// ResilienceChaosReport is the outcome of one seeded resilient storm.
type ResilienceChaosReport struct {
	Backend string
	Machine string
	Seed    uint64
	StormOutcome
	Traffic traffic.Report
}

// Digest renders the run's observable outcome — repair accounting plus
// every tenant's full resilience counter set, float bit patterns included
// — the byte-determinism witness for a fixed seed.
func (r ResilienceChaosReport) Digest() string {
	out := fmt.Sprintf("%s/%s seed=%#x delivered=%d lost=%016x rebuilt=%016x losses=%d rebuilds=%d violations=%d",
		r.Backend, r.Machine, r.Seed, r.Delivered,
		math.Float64bits(r.LostBytes), math.Float64bits(r.RebuiltBytes),
		r.Losses, r.Rebuilds, len(r.Violations))
	for _, tr := range r.Traffic.Tenants {
		out += fmt.Sprintf(" %s:%d/%d/%d/%d:%d/%d/%d/%d:%d/%d/%d:%d/%d/%d:%016x",
			tr.Name, tr.Offered, tr.Shed, tr.Completed, tr.InFlightEnd,
			tr.ShedAdmission, tr.ShedBrownout, tr.ShedBreaker, tr.DeadlineMiss,
			tr.Retries, tr.Hedges, tr.HedgeWins,
			tr.Breaker.Opens, tr.Breaker.HalfOpens, tr.Breaker.Closes,
			math.Float64bits(tr.DeliveredBytes))
	}
	return out
}

// resilienceChaosTenants is the foreground of the gate: a priority-0
// checkpoint writer with the full stack (tight deadline, budgeted jittered
// retries, hedging, breaker) and a priority-1 metadata tenant with
// deadline+budget only, under an engine-wide brownout — every mechanism of
// the layer is live inside the storm window.
func resilienceChaosTenants() traffic.Spec {
	return traffic.Spec{
		Brownout: resilience.Brownout{Capacity: 96, Tiers: []float64{1.0, 0.5}},
		Tenants: []traffic.Tenant{
			{
				Name: "ckpt", Clients: 4000, Workload: traffic.SeqWrite,
				Arrival:      traffic.Arrival{Kind: traffic.Poisson, Rate: 1},
				RequestBytes: 1 << 20, IOBytes: 1 << 20,
				MaxInflight: 64, SLOP99: 50 * time.Millisecond, Priority: 0,
				Resilience: resilience.Policy{
					Deadline: 10 * time.Millisecond,
					Retry: netsim.RetryPolicy{
						Timeout: 2 * time.Millisecond, Multiplier: 2,
						MaxRetries: 2, Jitter: time.Millisecond,
					},
					Hedge: resilience.Hedge{Quantile: 0.9, MinSamples: 16},
					Breaker: resilience.BreakerSpec{
						Failures: 5, Cooldown: 5 * time.Millisecond,
						Probes: 2, Successes: 3,
					},
				},
			},
			{
				Name: "meta", Clients: 2000, Workload: traffic.Metadata,
				Arrival:     traffic.Arrival{Kind: traffic.DeterministicRate, Rate: 1},
				MaxInflight: 128, SLOP99: 5 * time.Millisecond, Priority: 1,
				Resilience: resilience.Policy{
					Deadline: 5 * time.Millisecond,
					Retry:    netsim.RetryPolicy{Timeout: time.Millisecond, Multiplier: 2, MaxRetries: 1},
				},
			},
		},
	}
}

// RunResilienceChaosStorm generates the seeded storm for fs's canonical
// deployment, wraps the backend in a repair.Manager, attaches the
// invariant checker, and runs the resilient traffic foreground through it.
func RunResilienceChaosStorm(fs FS, seed uint64, opts Options) (ResilienceChaosReport, error) {
	opts = opts.withDefaults()
	machine, err := chaosMachine(fs)
	if err != nil {
		return ResilienceChaosReport{}, err
	}
	tb, err := buildTestbed(machine, fs, 2, nil)
	if err != nil {
		return ResilienceChaosReport{}, err
	}
	rig, err := armChaos(tb, fs, seed)
	if err != nil {
		return ResilienceChaosReport{}, err
	}
	trep := traffic.Run(tb.Env, tb.Fab, 2, tb.TenantMount, traffic.Config{
		Spec:     resilienceChaosTenants(),
		Duration: 50 * time.Millisecond,
		Seed:     opts.Seed + seed,
	})
	out, err := rig.outcome()
	if err != nil {
		return ResilienceChaosReport{}, err
	}
	return ResilienceChaosReport{Backend: string(fs), Machine: machine, Seed: seed,
		StormOutcome: out, Traffic: trep}, nil
}
