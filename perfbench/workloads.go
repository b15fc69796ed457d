package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"storagesim/internal/cluster"
	"storagesim/internal/dlio"
	"storagesim/internal/experiments"
	"storagesim/internal/fsapi"
	"storagesim/internal/ior"
	"storagesim/internal/netsim"
	"storagesim/internal/resilience"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
	"storagesim/internal/traffic"
)

// Workload sizes. Each is chosen so one simulation call costs roughly one
// to two host seconds on a 2-core x86 container, which puts about twenty
// measured calls into a 30-second run.
const (
	dlioEpochs       = 2               // of the Cosmoflow preset's 4
	iorSegments      = 200             // 1 MiB blocks per rank
	iorProcsPerNode  = 44              // one rank per Lassen core
	trafficLoad      = 300             // past the saturation knee
	openWindow       = 5 * time.Second // simulated generation window
	shardedWindow    = 2 * time.Second
	shardedRacks     = 4
	nodesPerRack     = 2
	remoteFraction   = 0.25
	interRackLatency = 5 * time.Microsecond
	shardedExecutors = 2
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// setup builds the testbed for one simulation call. Mounts the engine
	// sees go through wrap.
	setup func(in inputs, w wiring) (instance, error)
}

// instance is a built testbed, ready for exactly one simulation call.
type instance interface {
	run() (outcome, error)
}

// wiring is what the benchmark injects into a testbed: the fsapi decorator
// factory, the executor count of sharded runs, and whether traffic
// outcomes are observed.
type wiring struct {
	// wrap decorates a mount; rack identifies the sim environment the
	// mount belongs to (0 outside sharded runs).
	wrap      func(c fsapi.Client, rack int) fsapi.Client
	executors int
	observe   bool
}

// outcome is what one simulation call produced.
type outcome struct {
	// ops counts the simulated operations attempted: DLIO samples, IOR
	// transfers or traffic requests.
	ops int64
	// sim lists the simulated results, in a fixed order. They are model
	// outputs: a change that only speeds up the simulator leaves them
	// bit-identical.
	sim []stat
	// extra is folded into the digest alongside sim (the sharded engine's
	// own full-report digest).
	extra string
	// layer holds the per-layer counters the engines report.
	layer map[string]float64
	// check reports an internal inconsistency of the engine's report.
	check error
}

type stat struct {
	name  string
	value float64
}

// digest hashes the simulated results with every float in round-trip
// form, so any change to any of them changes the digest.
func (o outcome) digest() string {
	h := sha256.New()
	for _, s := range o.sim {
		fmt.Fprintf(h, "%s=%s\n", s.name, strconv.FormatFloat(s.value, 'g', -1, 64))
	}
	fmt.Fprintf(h, "extra=%s\n", o.extra)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// inputs are every input a workload hands the program, generated from the
// workload seed and nothing else.
type inputs struct {
	dlio     dlio.Config
	ior      ior.Config
	spec     traffic.Spec
	specJSON []byte
	seed     uint64 // traffic arrival seed
}

// splitmix derives an independent stream seed from the workload seed.
func splitmix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genInputs builds the inputs of every workload from seed. The seed moves
// only random streams (shuffles, random offsets, arrivals), never the
// amount of work, so host cost stays comparable across seeds.
func genInputs(seed uint64) (inputs, error) {
	in := inputs{seed: splitmix(seed, 3)}

	in.dlio = dlio.Cosmoflow()
	in.dlio.Epochs = dlioEpochs
	in.dlio.Seed = splitmix(seed, 1)

	in.ior = ior.Config{
		Workload:     ior.ML,
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     iorSegments,
		ProcsPerNode: iorProcsPerNode,
		Fsync:        true,
		ReorderTasks: true,
		Seed:         splitmix(seed, 2),
		Dir:          "/ior",
	}

	js, err := json.Marshal(tenantSpec())
	if err != nil {
		return inputs{}, fmt.Errorf("render tenant spec: %w", err)
	}
	in.specJSON = js
	if in.spec, err = traffic.ParseSpec(js); err != nil {
		return inputs{}, err
	}
	return in, nil
}

// tenantSpec is the built-in four-tenant saturation mix with the whole
// resilience stack armed. Deadlines sit near each tenant's p99 at the
// benchmark load so that retries, hedges and breaker trips all fire; the
// brownout capacity is below the sum of the inflight caps so that the
// lower tiers shed.
func tenantSpec() traffic.Spec {
	s := experiments.SaturationTenants()
	deadlines := []time.Duration{25 * time.Millisecond, 100 * time.Millisecond, 12 * time.Millisecond, 60 * time.Microsecond}
	for i := range s.Tenants {
		t := &s.Tenants[i]
		d := deadlines[i%len(deadlines)]
		t.Priority = i
		t.Resilience = resilience.Policy{
			Deadline: d,
			Retry:    netsim.RetryPolicy{Timeout: d / 4, Multiplier: 2, MaxTimeout: d, MaxRetries: 2, Jitter: d / 8},
			Hedge:    resilience.Hedge{Quantile: 0.75, MinSamples: 32, Floor: d / 10},
			Breaker:  resilience.BreakerSpec{Failures: 50, Cooldown: 50 * time.Millisecond, Probes: 4, Successes: 4},
		}
	}
	s.Brownout = resilience.Brownout{Capacity: 300, Tiers: []float64{1, 0.9, 0.7, 0.6}}
	return s
}

var workloads = []workload{
	{name: "dlio-cosmoflow", setup: setupDLIO},
	{name: "ior-fsync-mixed", setup: setupIOR},
	{name: "traffic-open", setup: setupOpen},
	{name: "traffic-sharded", setup: setupSharded},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- DLIO ---------------------------------------------------------------

type dlioRun struct {
	env    *sim.Env
	fab    *sim.Fabric
	mounts []fsapi.Client
	cfg    dlio.Config
}

func setupDLIO(in inputs, w wiring) (instance, error) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	fab.EnableAccounting()
	cl, err := cluster.New(env, fab, cluster.LassenSpec(), 1)
	if err != nil {
		return nil, err
	}
	sys := cluster.VASTOnLassen(cl)
	m := w.wrap(sys.Mount(cl.Node(0).Name, cl.Node(0).NIC), 0)
	return &dlioRun{env: env, fab: fab, mounts: []fsapi.Client{m}, cfg: in.dlio}, nil
}

func (r *dlioRun) run() (outcome, error) {
	res, err := dlio.Run(r.env, r.mounts, r.cfg, trace.NewRecorder())
	if err != nil {
		return outcome{}, err
	}
	a := res.Analysis
	o := outcome{
		ops: int64(res.Samples),
		sim: []stat{
			{"sim.dlio.train_s", res.Runtime.Seconds()},
			{"sim.dlio.io_s", a.TotalIO.Seconds()},
			{"sim.dlio.overlap_s", a.OverlapIO.Seconds()},
			{"sim.dlio.nonoverlap_s", a.NonOverlapIO.Seconds()},
			{"sim.dlio.compute_s", a.ComputeTime.Seconds()},
			{"sim.dlio.bytes", float64(a.Bytes)},
			{"sim.dlio.app_samples_per_s", res.AppSamplesPerSec},
			{"sim.dlio.sys_samples_per_s", res.SysSamplesPerSec},
			{"sim.fabric.top_pipe_util", topUtil(r.fab)},
		},
		layer: map[string]float64{
			"dlio.samples":          float64(res.Samples),
			"dlio.sim_io_s":         a.TotalIO.Seconds(),
			"dlio.sim_nonoverlap_s": a.NonOverlapIO.Seconds(),
			"fabric.top_pipe_util":  topUtil(r.fab),
		},
	}
	want := r.cfg.Samples * r.cfg.Epochs
	switch {
	case res.Samples != want:
		o.check = fmt.Errorf("dlio: %d samples processed, want %d", res.Samples, want)
	case a.Bytes != int64(want)*r.cfg.SampleBytes:
		o.check = fmt.Errorf("dlio: %d bytes read, want %d", a.Bytes, int64(want)*r.cfg.SampleBytes)
	case a.OverlapIO+a.NonOverlapIO != a.TotalIO:
		o.check = fmt.Errorf("dlio: overlap %v + non-overlap %v != total %v", a.OverlapIO, a.NonOverlapIO, a.TotalIO)
	}
	return o, nil
}

// --- IOR ----------------------------------------------------------------

type iorRun struct {
	env    *sim.Env
	fab    *sim.Fabric
	mounts []fsapi.Client
	cfg    ior.Config
}

func setupIOR(in inputs, w wiring) (instance, error) {
	const nodes = 2
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	fab.EnableAccounting()
	cl, err := cluster.New(env, fab, cluster.LassenSpec(), nodes)
	if err != nil {
		return nil, err
	}
	sys := cluster.GPFSOnLassen(cl)
	r := &iorRun{env: env, fab: fab, cfg: in.ior}
	for i := 0; i < nodes; i++ {
		r.mounts = append(r.mounts, w.wrap(sys.Mount(cl.Node(i).Name, cl.Node(i).NIC), 0))
	}
	return r, nil
}

func (r *iorRun) run() (outcome, error) {
	res, err := ior.Run(r.env, r.mounts, r.cfg)
	if err != nil {
		return outcome{}, err
	}
	// Every rank writes its file, then reads a peer's: two phases of
	// BytesPerRank/TransferSize transfers each.
	transfers := int64(res.Ranks) * (res.BytesPerRank / r.cfg.TransferSize) * 2
	o := outcome{
		ops: transfers,
		sim: []stat{
			{"sim.ior.write_gbps", res.WriteBW / 1e9},
			{"sim.ior.read_gbps", res.ReadBW / 1e9},
			{"sim.ior.write_s", res.WriteTime.Seconds()},
			{"sim.ior.read_s", res.ReadTime.Seconds()},
			{"sim.ior.ranks", float64(res.Ranks)},
			{"sim.fabric.top_pipe_util", topUtil(r.fab)},
		},
		layer: map[string]float64{
			"ior.transfers":        float64(transfers),
			"ior.sim_write_gbps":   res.WriteBW / 1e9,
			"ior.sim_read_gbps":    res.ReadBW / 1e9,
			"fabric.top_pipe_util": topUtil(r.fab),
		},
	}
	if res.WriteBW <= 0 || res.ReadBW <= 0 {
		o.check = fmt.Errorf("ior: a phase moved no data (write %g B/s, read %g B/s)", res.WriteBW, res.ReadBW)
	}
	return o, nil
}

// --- traffic ------------------------------------------------------------

type openRun struct {
	env      *sim.Env
	fab      *sim.Fabric
	nodes    int
	mount    func(tenant string, node int) fsapi.Client
	cfg      traffic.Config
	observed *int64
}

func setupOpen(in inputs, w wiring) (instance, error) {
	const nodes = 4
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	fab.EnableAccounting()
	cl, err := cluster.New(env, fab, cluster.WombatSpec(), nodes)
	if err != nil {
		return nil, err
	}
	sys := cluster.VASTOnWombat(cl)
	r := &openRun{env: env, fab: fab, nodes: nodes, observed: new(int64)}
	r.mount = func(tenant string, node int) fsapi.Client {
		return w.wrap(sys.Mount(cl.Node(node).Name+"/"+tenant, cl.Node(node).NIC), 0)
	}
	r.cfg = traffic.Config{Spec: in.spec, Duration: openWindow, Seed: in.seed, LoadScale: trafficLoad}
	if w.observe {
		r.cfg.OutcomeObserver = func(traffic.OutcomeEvent) { *r.observed++ }
	}
	return r, nil
}

func (r *openRun) run() (outcome, error) {
	rep := traffic.Run(r.env, r.fab, r.nodes, r.mount, r.cfg)
	return trafficOutcome(rep.Tenants, openWindow, "", *r.observed, topUtil(r.fab)), nil
}

type shardedRun struct {
	g        *sim.Group
	racks    []traffic.Rack
	fabs     []*sim.Fabric
	cfg      traffic.ShardedConfig
	observed *int64
}

func setupSharded(in inputs, w wiring) (instance, error) {
	r := &shardedRun{g: sim.NewGroup(w.executors), observed: new(int64)}
	for k := 0; k < shardedRacks; k++ {
		k := k
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		fab.EnableAccounting()
		shard := r.g.AddShard(fmt.Sprintf("rack%d/vast", k), env)
		cl, err := cluster.New(env, fab, cluster.WombatSpec(), nodesPerRack)
		if err != nil {
			r.g.Shutdown()
			return nil, err
		}
		sys := cluster.VASTOnWombat(cl)
		r.fabs = append(r.fabs, fab)
		r.racks = append(r.racks, traffic.Rack{
			Shard: shard,
			Fab:   fab,
			Nodes: nodesPerRack,
			Mount: func(tenant string, node int) fsapi.Client {
				return w.wrap(sys.Mount(cl.Node(node).Name+"/"+tenant, cl.Node(node).NIC), k)
			},
		})
	}
	r.g.LinkAll(interRackLatency)
	r.cfg = traffic.ShardedConfig{
		Config:         traffic.Config{Spec: in.spec, Duration: shardedWindow, Seed: in.seed, LoadScale: trafficLoad},
		RemoteFraction: remoteFraction,
	}
	if w.observe {
		// RunSharded does not forward OutcomeObserver today; the count
		// below records that as-is.
		r.cfg.OutcomeObserver = func(traffic.OutcomeEvent) { *r.observed++ }
	}
	return r, nil
}

func (r *shardedRun) discard() { r.g.Shutdown() }

func (r *shardedRun) run() (outcome, error) {
	defer r.g.Shutdown()
	rep := traffic.RunSharded(r.g, r.racks, r.cfg)
	util := 0.0
	for _, f := range r.fabs {
		if u := topUtil(f); u > util {
			util = u
		}
	}
	return trafficOutcome(rep.Tenants, shardedWindow, rep.Digest(), *r.observed, util), nil
}

// trafficOutcome summarises per-tenant reports. observed is the number of
// OutcomeObserver calls, which is not a simulated result and stays out of
// the digest.
func trafficOutcome(tenants []traffic.TenantReport, window time.Duration, extra string, observed int64, util float64) outcome {
	o := outcome{extra: extra, layer: map[string]float64{}}
	var offered, completed, shedAdm, shedBrown, shedBreak, miss, inflight, retries, hedges, wins, transitions float64
	for _, t := range tenants {
		p := "sim.traffic." + t.Name + "."
		o.sim = append(o.sim,
			stat{p + "offered", float64(t.Offered)},
			stat{p + "completed", float64(t.Completed)},
			stat{p + "shed", float64(t.Shed)},
			stat{p + "retries", float64(t.Retries)},
			stat{p + "hedges", float64(t.Hedges)},
			stat{p + "hedge_wins", float64(t.HedgeWins)},
			stat{p + "goodput_mbps", t.DeliveredBytes / window.Seconds() / 1e6},
			stat{p + "p50_ms", t.P50.Seconds() * 1e3},
			stat{p + "p99_ms", t.P99.Seconds() * 1e3},
		)
		offered += float64(t.Offered)
		completed += float64(t.Completed)
		shedAdm += float64(t.ShedAdmission)
		shedBrown += float64(t.ShedBrownout)
		shedBreak += float64(t.ShedBreaker)
		miss += float64(t.DeadlineMiss)
		inflight += float64(t.InFlightEnd)
		retries += float64(t.Retries)
		hedges += float64(t.Hedges)
		wins += float64(t.HedgeWins)
		transitions += float64(t.Breaker.Opens + t.Breaker.HalfOpens + t.Breaker.Closes)
		if sum := t.ShedAdmission + t.ShedBrownout + t.ShedBreaker + t.DeadlineMiss; sum != t.Shed && o.check == nil {
			o.check = fmt.Errorf("traffic: tenant %s shed %d != sum of causes %d", t.Name, t.Shed, sum)
		}
		if t.Completed+t.Shed > t.Offered && o.check == nil {
			o.check = fmt.Errorf("traffic: tenant %s finished %d of %d offered", t.Name, t.Completed+t.Shed, t.Offered)
		}
	}
	o.sim = append(o.sim, stat{"sim.fabric.top_pipe_util", util})
	o.ops = int64(offered)
	l := o.layer
	l["traffic.offered"] = offered
	l["traffic.completed"] = completed
	l["traffic.shed_admission"] = shedAdm
	l["traffic.shed_brownout"] = shedBrown
	l["traffic.shed_breaker"] = shedBreak
	l["traffic.deadline_miss"] = miss
	l["traffic.inflight_end"] = inflight
	l["traffic.useful_ratio"] = ratio(completed, offered)
	l["resilience.retries"] = retries
	l["resilience.hedges"] = hedges
	l["resilience.hedge_wins"] = wins
	l["resilience.hedge_win_ratio"] = ratio(wins, hedges)
	l["resilience.breaker_transitions"] = transitions
	l["group.outcomes_observed"] = float64(observed)
	l["fabric.top_pipe_util"] = util
	return o
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// topUtil is the time-averaged utilization of the fabric's busiest pipe.
func topUtil(f *sim.Fabric) float64 {
	if top := f.TopUtilized(1); len(top) > 0 {
		return top[0].Utilization
	}
	return 0
}
