package traffic

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/netsim"
	"storagesim/internal/resilience"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
)

// buildShardedRig assembles a domain group with nracks racks — each with
// its own env, fabric and one shared pipe — in a full mesh at linkLat.
func buildShardedRig(parallel, nracks, nodes int, bw float64, linkLat sim.Duration) (*sim.Group, []Rack) {
	g := sim.NewGroup(parallel)
	racks := make([]Rack, nracks)
	for r := 0; r < nracks; r++ {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		pipe := fab.NewPipe(fmt.Sprintf("rack%d", r), bw, 10*time.Microsecond)
		racks[r] = Rack{
			Shard: g.AddShard(fmt.Sprintf("rack%d", r), env),
			Fab:   fab,
			Nodes: nodes,
			Mount: func(tenant string, node int) fsapi.Client {
				return &fakeClient{fab: fab, path: []*sim.Pipe{pipe}, opLat: 200 * time.Microsecond}
			},
		}
	}
	if nracks > 1 {
		g.LinkAll(linkLat)
	}
	return g, racks
}

func shardedDigest(t *testing.T, parallel int, remote float64) string {
	t.Helper()
	g, racks := buildShardedRig(parallel, 3, 2, 1e9, 500*time.Microsecond)
	defer g.Shutdown()
	rep := RunSharded(g, racks, ShardedConfig{
		Config:         Config{Spec: twoTenantSpec(), Duration: 2 * time.Second, Seed: 7},
		RemoteFraction: remote,
	})
	return rep.Digest()
}

// TestShardedLockstep pins the engine-level tentpole property: the full
// sharded report — counters, delivered-byte floats and latency quantiles of
// every rack — is byte-identical whether the racks advance on one executor
// (the sequential oracle) or on 2 or 4.
func TestShardedLockstep(t *testing.T) {
	want := shardedDigest(t, 1, 0.4)
	for _, parallel := range []int{2, 4} {
		if got := shardedDigest(t, parallel, 0.4); got != want {
			t.Errorf("parallel=%d diverged from sequential oracle:\n got %s\nwant %s", parallel, got, want)
		}
	}
	// Sanity: remote placement must actually couple the racks — an
	// uncoupled run has to produce a different outcome.
	if local := shardedDigest(t, 1, 0); local == want {
		t.Fatal("remote fraction 0.4 produced the same digest as 0: forwarding never engaged")
	}
}

// resilientShardedSpec layers every resilience mechanism onto two tenants
// so the lockstep digest covers deadlines, retries, hedging, breakers and
// brownout at once.
func resilientShardedSpec() Spec {
	return Spec{
		Brownout: resilience.Brownout{Capacity: 48, Tiers: []float64{1.0, 0.5}},
		Tenants: []Tenant{
			{
				Name: "writer", Clients: 100_000, Workload: SeqWrite,
				Arrival:      Arrival{Kind: Poisson, Rate: 1e-3},
				RequestBytes: 1 << 20, IOBytes: 1 << 20,
				MaxInflight: 32, Priority: 0,
				Resilience: resilience.Policy{
					Deadline: 80 * time.Millisecond,
					Retry:    netsim.RetryPolicy{Timeout: 10 * time.Millisecond, Multiplier: 2, MaxRetries: 2, Jitter: 5 * time.Millisecond},
					Hedge:    resilience.Hedge{Quantile: 0.5, MinSamples: 8},
					Breaker:  resilience.BreakerSpec{Failures: 20, Cooldown: 100 * time.Millisecond, Probes: 2, Successes: 3},
				},
			},
			{
				Name: "batch", Clients: 100_000, Workload: SeqRead,
				Arrival:      Arrival{Kind: Poisson, Rate: 1e-3},
				RequestBytes: 1 << 20, IOBytes: 1 << 20,
				MaxInflight: 32, Priority: 1,
				Resilience: resilience.Policy{
					Deadline: 120 * time.Millisecond,
					Retry:    netsim.RetryPolicy{Timeout: 20 * time.Millisecond, Multiplier: 2, MaxRetries: 1},
				},
			},
		},
	}
}

func resilientShardedDigest(t *testing.T, parallel int) string {
	t.Helper()
	g, racks := buildShardedRig(parallel, 3, 2, 1e8, 500*time.Microsecond)
	defer g.Shutdown()
	rep := RunSharded(g, racks, ShardedConfig{
		Config:         Config{Spec: resilientShardedSpec(), Duration: 2 * time.Second, Seed: 7, Drain: true},
		RemoteFraction: 0.4,
	})
	return rep.Digest()
}

// TestShardedResilienceLockstep extends the lockstep gate to the resilience
// layer: with deadlines cancelling transfers mid-flight, jittered retries,
// hedge races and breaker state all active across three coupled racks, the
// digest must still be byte-identical on 1, 2 and 4 executors, where one
// executor is the in-line sequential oracle.
func TestShardedResilienceLockstep(t *testing.T) {
	want := resilientShardedDigest(t, 1)
	for _, parallel := range []int{2, 4} {
		if got := resilientShardedDigest(t, parallel); got != want {
			t.Errorf("parallel=%d diverged from sequential oracle:\n got %s\nwant %s", parallel, got, want)
		}
	}
	// The digest is only a meaningful gate if the layer engaged: the
	// congested rig must show deadline misses and retries somewhere.
	if !strings.Contains(want, "writer:") {
		t.Fatalf("digest shape: %s", want)
	}
}

// observed collects both observer streams of a run.
type observed struct {
	events   []trace.Event
	outcomes []OutcomeEvent
}

func (o *observed) attach(cfg *Config) {
	cfg.Observer = func(ev trace.Event) { o.events = append(o.events, ev) }
	cfg.OutcomeObserver = func(ev OutcomeEvent) { o.outcomes = append(o.outcomes, ev) }
}

// TestShardedSingleRackMatchesRun: with one rack the sharded engine is the
// classic engine — same arrivals, same admissions, same byte stream, same
// latency list, payload and observer streams, element for element, both
// for a windowed and for a drained run.
func TestShardedSingleRackMatchesRun(t *testing.T) {
	for _, drain := range []bool{false, true} {
		cfg := Config{Spec: twoTenantSpec(), Duration: 2 * time.Second, Seed: 3, KeepLatencies: true, Drain: drain}

		var want, got observed
		ccfg := cfg
		want.attach(&ccfg)
		env, fab, mount := fakeRig(1e9)
		classic := Run(env, fab, 2, mount, ccfg)

		// RemoteFraction 0.5 with one rack must be forced to 0: nowhere
		// else to place data.
		scfg := cfg
		got.attach(&scfg)
		g, racks := buildShardedRig(2, 1, 2, 1e9, 500*time.Microsecond)
		sharded := RunSharded(g, racks, ShardedConfig{Config: scfg, RemoteFraction: 0.5})
		g.Shutdown()

		if len(sharded.Tenants) != len(classic.Tenants) || len(sharded.Racks) != 1 {
			t.Fatalf("drain=%v report shape: %d tenants / %d racks", drain, len(sharded.Tenants), len(sharded.Racks))
		}
		for ti := range classic.Tenants {
			a, b := classic.Tenants[ti], sharded.Tenants[ti]
			if a.Offered != b.Offered || a.Shed != b.Shed || a.Completed != b.Completed || a.InFlightEnd != b.InFlightEnd {
				t.Errorf("drain=%v %s counters diverged: classic %d/%d/%d/%d sharded %d/%d/%d/%d", drain,
					a.Name, a.Offered, a.Shed, a.Completed, a.InFlightEnd,
					b.Offered, b.Shed, b.Completed, b.InFlightEnd)
			}
			if drain && b.InFlightEnd != 0 {
				t.Errorf("drained sharded run left %d %s requests in flight", b.InFlightEnd, b.Name)
			}
			if a.DeliveredBytes != b.DeliveredBytes || a.PayloadBytes != b.PayloadBytes {
				t.Errorf("drain=%v %s bytes diverged: classic %v/%v sharded %v/%v", drain, a.Name,
					a.DeliveredBytes, a.PayloadBytes, b.DeliveredBytes, b.PayloadBytes)
			}
			if a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 {
				t.Errorf("drain=%v %s quantiles diverged: classic %v/%v/%v sharded %v/%v/%v", drain,
					a.Name, a.P50, a.P95, a.P99, b.P50, b.P95, b.P99)
			}
			if !reflect.DeepEqual(a.Latencies, b.Latencies) {
				t.Errorf("drain=%v %s latency streams diverged (%d vs %d values)", drain, a.Name, len(a.Latencies), len(b.Latencies))
			}
		}
		if len(want.events) == 0 || len(want.outcomes) == 0 {
			t.Fatalf("drain=%v: classic run observed nothing", drain)
		}
		if !reflect.DeepEqual(want.events, got.events) {
			t.Errorf("drain=%v trace observer streams diverged (%d vs %d events)", drain, len(want.events), len(got.events))
		}
		if !reflect.DeepEqual(want.outcomes, got.outcomes) {
			t.Errorf("drain=%v outcome observer streams diverged (%d vs %d events)", drain, len(want.outcomes), len(got.outcomes))
		}
	}
}

// observedShardedDigest runs a drained three-rack sharded run with remote
// placement and both observers set, and digests both streams plus every
// rack's payload bytes.
func observedShardedDigest(t *testing.T, parallel int) string {
	t.Helper()
	var obs observed
	cfg := Config{Spec: resilientShardedSpec(), Duration: time.Second, Seed: 5, Drain: true}
	obs.attach(&cfg)
	g, racks := buildShardedRig(parallel, 3, 2, 1e8, 500*time.Microsecond)
	defer g.Shutdown()
	rep := RunSharded(g, racks, ShardedConfig{Config: cfg, RemoteFraction: 0.4})

	var b strings.Builder
	for _, rr := range rep.Racks {
		for _, tr := range rr.Tenants {
			if tr.InFlightEnd != 0 {
				t.Errorf("drained run: %s/%s ended with %d in flight", rr.Name, tr.Name, tr.InFlightEnd)
			}
			if tr.Completed > 0 && tr.PayloadBytes == 0 {
				t.Errorf("%s/%s completed %d requests but reports no payload", rr.Name, tr.Name, tr.Completed)
			}
			fmt.Fprintf(&b, "%s/%s:%016x ", rr.Name, tr.Name, math.Float64bits(tr.PayloadBytes))
		}
	}
	var completed uint64
	kinds := map[OutcomeKind]int{}
	for _, tr := range rep.Tenants {
		completed += tr.Completed
	}
	remote := 0
	for _, ev := range obs.events {
		if strings.Contains(ev.File, "/rem-") {
			remote++
		}
		fmt.Fprintf(&b, "\n%d %s %s %d %d %d %d %s", ev.At, ev.Tenant, ev.Op, ev.Bytes, ev.IO, ev.Latency, ev.Rank, ev.File)
	}
	for _, ev := range obs.outcomes {
		kinds[ev.Kind]++
		fmt.Fprintf(&b, "\n%d %s %s %d %d/%d", ev.At, ev.Tenant, ev.Kind, ev.Bytes, ev.Retries, ev.Hedges)
	}
	if uint64(len(obs.events)) != completed || kinds[OutcomeCompleted] != len(obs.events) {
		t.Errorf("observers saw %d events and %d completions for %d completed requests",
			len(obs.events), kinds[OutcomeCompleted], completed)
	}
	if remote == 0 {
		t.Error("no forwarded request reached the trace observer")
	}
	if len(kinds) < 2 {
		t.Errorf("outcome stream holds only %v: the congested rig should shed or miss deadlines", kinds)
	}
	return b.String()
}

// observedShardedSHA pins observedShardedDigest, so the streams must also
// match across kernel builds (default, simreference).
const observedShardedSHA = "df447ac5d1740906020d3b98f80a80cf6c00da5052fd3ebc9289fd2fbdd36b8f"

// TestShardedObserversLockstep: with remote placement coupling three
// racks, both observer streams and every rack's payload bytes are
// byte-identical whether the racks advance on one executor or two, and
// the drained run leaves nothing in flight. make parallel-smoke runs it
// under -race and under -tags simreference.
func TestShardedObserversLockstep(t *testing.T) {
	want := observedShardedDigest(t, 1)
	if got := observedShardedDigest(t, 2); got != want {
		t.Fatalf("observer streams diverged between 1 and 2 executors (%d vs %d bytes)", len(want), len(got))
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(want))); sum != observedShardedSHA {
		t.Fatalf("observer digest sha256 %s, pinned %s", sum, observedShardedSHA)
	}
}

// TestShardedRemoteLatency forces every request remote (fraction 1, two
// racks) and checks the exact latency composition: forward link crossing +
// remote metadata service + reply link crossing, measured on the home
// rack's clock.
func TestShardedRemoteLatency(t *testing.T) {
	const linkLat = 500 * time.Microsecond
	const opLat = 200 * time.Microsecond
	spec := Spec{Tenants: []Tenant{{
		Name: "md", Clients: 50_000, Workload: Metadata,
		Arrival: Arrival{Kind: DeterministicRate, Rate: 2e-3}, // 100 req/s aggregate
	}}}
	g, racks := buildShardedRig(2, 2, 1, 1e9, linkLat)
	defer g.Shutdown()
	rep := RunSharded(g, racks, ShardedConfig{
		Config:         Config{Spec: spec, Duration: time.Second, Seed: 11, KeepLatencies: true},
		RemoteFraction: 1,
	})
	md := rep.Tenants[0]
	if md.Offered == 0 || md.Completed == 0 {
		t.Fatalf("no traffic: offered %d completed %d", md.Offered, md.Completed)
	}
	if md.Completed+uint64(md.InFlightEnd) != md.Offered || md.Shed != 0 {
		t.Fatalf("accounting: offered %d completed %d inflight %d shed %d",
			md.Offered, md.Completed, md.InFlightEnd, md.Shed)
	}
	want := (2*linkLat + opLat).Seconds()
	for i, lat := range md.Latencies {
		if lat != want {
			t.Fatalf("request %d latency %v, want %v (2 link crossings + remote service)", i, lat, want)
		}
	}
}

// TestShardedValidation covers the guard rails of RunSharded.
func TestShardedValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	cfg := ShardedConfig{Config: Config{Spec: twoTenantSpec(), Duration: time.Second, Seed: 1}}

	g, racks := buildShardedRig(1, 2, 1, 1e9, 500*time.Microsecond)
	defer g.Shutdown()
	mustPanic("no racks", func() { RunSharded(g, nil, cfg) })
	bad := cfg
	bad.RemoteFraction = 1.5
	mustPanic("remote fraction", func() { RunSharded(g, racks, bad) })
	zero := cfg
	zero.Duration = 0
	mustPanic("zero duration", func() { RunSharded(g, racks, zero) })
	RunSharded(g, racks, cfg)
	mustPanic("stale group", func() { RunSharded(g, racks, cfg) })
}

// TestShardedDigestShape: the digest names every rack and tenant — the
// lockstep comparisons above are only as strong as the digest's coverage.
func TestShardedDigestShape(t *testing.T) {
	d := shardedDigest(t, 1, 0.4)
	for _, wantSub := range []string{"rack0", "rack1", "rack2", "writer:", "md:"} {
		if !strings.Contains(d, wantSub) {
			t.Fatalf("digest missing %q: %s", wantSub, d)
		}
	}
	if strings.Contains(d, fmt.Sprintf("%016x", math.Float64bits(0))) == false {
		// md tenant moves no bytes — its zero DeliveredBytes must appear
		// as an explicit bit pattern, proving floats are bit-rendered.
		t.Fatalf("digest lacks float bit patterns: %s", d)
	}
}
