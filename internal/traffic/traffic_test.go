package traffic

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/trace"
)

// fakeClient is a minimal fsapi.Client for engine tests: every stream
// crosses one shared pipe (so tenants contend and tagging is observable)
// and metadata ops cost a fixed latency.
type fakeClient struct {
	fab   *sim.Fabric
	path  []*sim.Pipe
	tag   string
	opLat sim.Duration
}

func (c *fakeClient) FSName() string        { return "fake" }
func (c *fakeClient) NodeName() string      { return "node" }
func (c *fakeClient) SetFlowTag(tag string) { c.tag = tag }

func (c *fakeClient) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	p.SetFlowTag(c.tag)
	c.fab.Transfer(p, c.path, float64(total), 0)
}

func (c *fakeClient) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	p.SetFlowTag(c.tag)
	c.fab.Transfer(p, c.path, float64(total), 0)
}

func (c *fakeClient) Open(p *sim.Proc, path string, truncate bool) fsapi.File {
	p.SetFlowTag(c.tag)
	p.Sleep(c.opLat)
	return fakeFile{}
}

func (c *fakeClient) Remove(p *sim.Proc, path string) { p.Sleep(c.opLat) }
func (c *fakeClient) DropCaches()                     {}

type fakeFile struct{}

func (fakeFile) Path() string                      { return "" }
func (fakeFile) Size() int64                       { return 0 }
func (fakeFile) WriteAt(p *sim.Proc, off, n int64) {}
func (fakeFile) ReadAt(p *sim.Proc, off, n int64)  {}
func (fakeFile) Fsync(p *sim.Proc)                 {}
func (fakeFile) Close(p *sim.Proc)                 {}

// fakeRig builds an env, a fabric with one shared pipe of the given
// bandwidth, and a mount function minting tagged fake clients.
func fakeRig(bw float64) (*sim.Env, *sim.Fabric, func(string, int) fsapi.Client) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	link := fab.NewPipe("link", bw, 10*time.Microsecond)
	mount := func(tenant string, node int) fsapi.Client {
		return &fakeClient{fab: fab, path: []*sim.Pipe{link}, opLat: 200 * time.Microsecond}
	}
	return env, fab, mount
}

func twoTenantSpec() Spec {
	return Spec{Tenants: []Tenant{
		{
			Name: "writer", Clients: 100_000, Workload: SeqWrite,
			Arrival:      Arrival{Kind: Poisson, Rate: 1e-3}, // 100 req/s aggregate
			RequestBytes: 1 << 20, IOBytes: 1 << 20,
			MaxInflight: 64, SLOP99: 500 * time.Millisecond,
		},
		{
			Name: "md", Clients: 50_000, Workload: Metadata,
			Arrival:     Arrival{Kind: DeterministicRate, Rate: 2e-3}, // 100 req/s
			MaxInflight: 32, SLOP99: time.Millisecond,
		},
	}}
}

// TestEngineBasics: both tenants generate, complete, and report sane
// latency percentiles and byte attribution.
func TestEngineBasics(t *testing.T) {
	env, fab, mount := fakeRig(1e9) // 1 GB/s: 100 MB/s offered, uncongested
	rep := Run(env, fab, 2, mount, Config{
		Spec: twoTenantSpec(), Duration: 2 * time.Second, Seed: 1, KeepLatencies: true,
	})
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenant count %d", len(rep.Tenants))
	}
	wr, md := rep.Tenants[0], rep.Tenants[1]
	// ~200 arrivals each over 2s; Poisson fluctuates, rate is exact.
	if wr.Offered < 120 || wr.Offered > 280 {
		t.Fatalf("writer offered %d, want ~200", wr.Offered)
	}
	if md.Offered != 200 {
		t.Fatalf("metadata offered %d, want exactly 200 (deterministic rate)", md.Offered)
	}
	for _, tr := range rep.Tenants {
		if tr.Completed == 0 || tr.Completed+tr.Shed+uint64(tr.InFlightEnd) != tr.Offered {
			t.Fatalf("%s: offered %d != completed %d + shed %d + inflight %d",
				tr.Name, tr.Offered, tr.Completed, tr.Shed, tr.InFlightEnd)
		}
		if tr.P50 <= 0 || tr.P99 < tr.P50 {
			t.Fatalf("%s: p50 %v p99 %v", tr.Name, tr.P50, tr.P99)
		}
	}
	// Byte attribution: the writer moved ~1 MiB per completed request (plus
	// partial in-flight progress); metadata moved nothing.
	if wr.DeliveredBytes < float64(wr.Completed)*float64(1<<20)*0.9 {
		t.Fatalf("writer delivered %.0f bytes for %d requests", wr.DeliveredBytes, wr.Completed)
	}
	if md.DeliveredBytes != 0 {
		t.Fatalf("metadata tenant delivered %.0f bytes", md.DeliveredBytes)
	}
	// SLO attainment: uncongested writer must be near 1; the metadata
	// tenant's 1ms target is well above its 200µs op cost, so exactly 1.
	if wr.SLOAttainment < 0.99 {
		t.Fatalf("writer SLO attainment %v", wr.SLOAttainment)
	}
	if md.SLOAttainment != 1 {
		t.Fatalf("metadata SLO attainment %v", md.SLOAttainment)
	}
	// The sketch tracks the exact oracle within its bound on kept latencies.
	for _, p := range []float64{50, 95, 99} {
		exact := stats.Percentile(wr.Latencies, p)
		est := wr.Sketch.Quantile(p)
		if math.Abs(est-exact)/exact > 0.02 {
			t.Fatalf("writer p%g: sketch %v vs exact %v", p, est, exact)
		}
	}
}

// TestEngineDeterminism: two identical runs must produce identical
// reports, including every kept latency; a different seed must not.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) Report {
		env, fab, mount := fakeRig(2e8) // congested: contention in play
		return Run(env, fab, 2, mount, Config{
			Spec: twoTenantSpec(), Duration: time.Second, Seed: seed, KeepLatencies: true,
		})
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(reportKey(a), reportKey(b)) {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", reportKey(a), reportKey(b))
	}
	if !reflect.DeepEqual(a.Tenants[0].Latencies, b.Tenants[0].Latencies) {
		t.Fatal("latency streams diverged between identical runs")
	}
	c := run(8)
	if reflect.DeepEqual(reportKey(a), reportKey(c)) {
		t.Fatal("different seeds produced the identical report")
	}
}

// reportKey projects a report onto its comparable scalars.
func reportKey(r Report) []TenantReport {
	out := make([]TenantReport, len(r.Tenants))
	for i, tr := range r.Tenants {
		tr.Sketch = nil
		tr.Latencies = nil
		out[i] = tr
	}
	return out
}

// TestEngineAdmissionControl: a starved link with a tiny in-flight cap
// must shed, and the books must balance.
func TestEngineAdmissionControl(t *testing.T) {
	env, fab, mount := fakeRig(1e6) // 1 MB/s against 100 MB/s offered
	spec := Spec{Tenants: []Tenant{{
		Name: "w", Clients: 100_000, Workload: SeqWrite,
		Arrival:      Arrival{Kind: Poisson, Rate: 1e-3},
		RequestBytes: 1 << 20, IOBytes: 1 << 20,
		MaxInflight: 4,
	}}}
	rep := Run(env, fab, 1, mount, Config{Spec: spec, Duration: 2 * time.Second, Seed: 3})
	tr := rep.Tenants[0]
	if tr.Shed == 0 {
		t.Fatal("starved tenant shed nothing")
	}
	if tr.InFlightEnd > 4 {
		t.Fatalf("in-flight %d exceeded cap 4", tr.InFlightEnd)
	}
	if tr.Completed+tr.Shed+uint64(tr.InFlightEnd) != tr.Offered {
		t.Fatalf("books don't balance: %+v", tr)
	}
	// Uncapped tenant on the same starved link: nothing is shed, requests
	// pile up in flight instead (pure open loop).
	env2, fab2, mount2 := fakeRig(1e6)
	spec.Tenants[0].MaxInflight = 0
	rep2 := Run(env2, fab2, 1, mount2, Config{Spec: spec, Duration: 2 * time.Second, Seed: 3})
	tr2 := rep2.Tenants[0]
	if tr2.Shed != 0 {
		t.Fatalf("uncapped tenant shed %d", tr2.Shed)
	}
	if tr2.InFlightEnd <= 4 {
		t.Fatalf("uncapped starved tenant should pile up in flight, got %d", tr2.InFlightEnd)
	}
}

// TestEngineOpenLoopIsOpen: halving service bandwidth must not change the
// offered arrival count — generation is independent of completion.
func TestEngineOpenLoopIsOpen(t *testing.T) {
	offered := func(bw float64) uint64 {
		env, fab, mount := fakeRig(bw)
		spec := twoTenantSpec()
		spec.Tenants[0].MaxInflight = 0
		rep := Run(env, fab, 2, mount, Config{Spec: spec, Duration: time.Second, Seed: 11})
		return rep.Tenants[0].Offered
	}
	if a, b := offered(1e9), offered(1e7); a != b {
		t.Fatalf("offered load depends on service rate: %d vs %d", a, b)
	}
}

// TestEngineLoadScale: doubling LoadScale doubles deterministic offered
// counts exactly.
func TestEngineLoadScale(t *testing.T) {
	count := func(scale float64) uint64 {
		env, fab, mount := fakeRig(1e9)
		spec := Spec{Tenants: []Tenant{{
			Name: "md", Clients: 1000, Workload: Metadata,
			Arrival: Arrival{Kind: DeterministicRate, Rate: 0.1},
		}}}
		rep := Run(env, fab, 1, mount, Config{Spec: spec, Duration: time.Second, Seed: 1, LoadScale: scale})
		return rep.Tenants[0].Offered
	}
	if c1, c2 := count(1), count(2); c2 != 2*c1 {
		t.Fatalf("load 2x offered %d, want %d", c2, 2*c1)
	}
}

// TestMillionClientsBounded: a one-million-client population must run
// through a handful of generator processes — OS goroutine count stays
// bounded by tenants×nodes plus in-flight requests plus the kernel's
// worker pool, never by the client population.
func TestMillionClientsBounded(t *testing.T) {
	env, fab, mount := fakeRig(1e9)
	spec := Spec{Tenants: []Tenant{
		{
			Name: "a", Clients: 600_000, Workload: SeqWrite,
			Arrival:      Arrival{Kind: Poisson, Rate: 5e-4}, // 300 req/s
			RequestBytes: 1 << 20, IOBytes: 1 << 20, MaxInflight: 64,
		},
		{
			Name: "b", Clients: 400_000, Workload: Metadata,
			Arrival:     Arrival{Kind: Poisson, Rate: 1e-3}, // 400 req/s
			MaxInflight: 64,
		},
	}}
	baseline := runtime.NumGoroutine()
	peak := 0
	env.Go("probe", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			p.Sleep(10 * time.Millisecond)
		}
	})
	rep := Run(env, fab, 4, mount, Config{Spec: spec, Duration: time.Second, Seed: 5})
	if got := rep.Tenants[0].Offered + rep.Tenants[1].Offered; got < 500 {
		t.Fatalf("only %d arrivals from 1M clients", got)
	}
	// Generous bound: 2 tenants × 4 nodes generators + 128 in-flight caps +
	// the kernel's 64 pooled workers + slack is still far under 1000.
	if peak-baseline > 1000 {
		t.Fatalf("goroutine peak %d over baseline %d — per-client processes?", peak, baseline)
	}
}

// TestConfigValidate: every malformed run configuration is an error before
// it can reach an engine panic.
func TestConfigValidate(t *testing.T) {
	ok := Config{Spec: twoTenantSpec(), Duration: time.Second}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (ShardedConfig{Config: ok, RemoteFraction: 1}).Validate(); err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}
	bad := map[string]ShardedConfig{
		"empty spec":    {Config: Config{Duration: time.Second}},
		"zero duration": {Config: Config{Spec: ok.Spec}},
		"negative load": {Config: Config{Spec: ok.Spec, Duration: time.Second, LoadScale: -1}},
		"NaN load":      {Config: Config{Spec: ok.Spec, Duration: time.Second, LoadScale: math.NaN()}},
		"infinite load": {Config: Config{Spec: ok.Spec, Duration: time.Second, LoadScale: math.Inf(1)}},
		"sketch alpha":  {Config: Config{Spec: ok.Spec, Duration: time.Second, SketchAlpha: 1}},
		"remote > 1":    {Config: ok, RemoteFraction: 1.5},
		"remote < 0":    {Config: ok, RemoteFraction: -0.1},
		"NaN remote":    {Config: ok, RemoteFraction: math.NaN()},
	}
	for name, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	tr := &trace.Trace{Events: []trace.Event{{Tenant: "a", Op: trace.OpRead, Rank: -1}}}
	if err := (TraceConfig{Trace: tr}).Validate(); err != nil {
		t.Fatalf("valid trace config rejected: %v", err)
	}
	badTrace := map[string]TraceConfig{
		"no trace":              {},
		"empty trace":           {Trace: &trace.Trace{}},
		"negative io bytes":     {Trace: tr, IOBytes: -1},
		"negative max inflight": {Trace: tr, MaxInflight: -1},
		"sketch alpha":          {Trace: tr, SketchAlpha: 1},
		"NaN sketch alpha":      {Trace: tr, SketchAlpha: math.NaN()},
	}
	for name, cfg := range badTrace {
		if err := cfg.Validate(); err == nil {
			t.Errorf("trace config %s: accepted", name)
		}
	}
}
