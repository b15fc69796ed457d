package experiments

import (
	"fmt"
	"math"
	"time"

	"storagesim/internal/cluster"
	"storagesim/internal/faults"
	"storagesim/internal/faults/invariants"
	"storagesim/internal/ior"
	"storagesim/internal/repair"
	"storagesim/internal/repair/chaos"
	"storagesim/internal/vast"
)

// Chaos fuzzing gate: randomized fault storms against every backend with
// the full invariant suite attached — over-allocation, nominal-capacity,
// clock monotonicity, byte conservation (VAST's staging split) and
// rebuild-completes-or-reports-loss. A fixed seed reproduces the storm,
// the run and the report digest byte-for-byte; `make chaos-smoke` pins
// three seeds per backend.

// StormOutcome is one seeded storm's repair and invariant accounting.
type StormOutcome struct {
	Delivered    int // fault events actually delivered
	LostBytes    float64
	RebuiltBytes float64
	Losses       int
	Rebuilds     int
	Violations   []string
}

// ChaosReport is the outcome of one seeded storm.
type ChaosReport struct {
	Backend string
	Machine string
	Seed    uint64
	WriteBW float64
	StormOutcome
}

// Digest renders the run's observable outcome with full float bit
// patterns — the byte-determinism witness for a fixed seed.
func (r ChaosReport) Digest() string {
	return fmt.Sprintf("%s/%s seed=%#x delivered=%d bw=%016x lost=%016x rebuilt=%016x losses=%d rebuilds=%d violations=%d",
		r.Backend, r.Machine, r.Seed, r.Delivered,
		math.Float64bits(r.WriteBW), math.Float64bits(r.LostBytes), math.Float64bits(r.RebuiltBytes),
		r.Losses, r.Rebuilds, len(r.Violations))
}

// chaosMachine is the machine of fs's home deployment, the testbed its
// storms run on.
func chaosMachine(fs FS) (string, error) {
	home, err := cluster.Home(string(fs))
	return home.Machine, err
}

// chaosRig is one backend under a seeded storm: the repair manager the
// storm is armed on, its injector, and the invariant checker.
type chaosRig struct {
	mgr     *repair.Manager
	inj     *faults.Injector
	checker *invariants.Checker
}

// armChaos draws the seeded storm for tb's backend — server and unit
// counts come from the backend itself — arms it on a repair.Manager, and
// attaches the invariant checker with the rebuild-completes-or-reports-loss
// final check. Call before the foreground runs.
func armChaos(tb *cluster.Testbed, fs FS, seed uint64) (chaosRig, error) {
	storm := chaos.Storm(seed, chaos.Profile{
		Target:          string(fs),
		Servers:         tb.System.FaultServers(),
		Units:           tb.System.FaultUnits(),
		UnitsAreServers: tb.System.RepairScheme().ServersHoldData,
		Horizon:         30 * time.Millisecond,
		Events:          12,
	})
	mgr, inj, err := armRepair(tb, fs, storm, repair.QoS{MinBytes: 32 << 20})
	if err != nil {
		return chaosRig{}, err
	}
	checker := invariants.Attach(tb.Env, tb.Fab, 250*time.Microsecond)
	checker.Final("rebuild-completes-or-reports-loss", mgr.CheckComplete)
	return chaosRig{mgr: mgr, inj: inj, checker: checker}, nil
}

// outcome reports the storm after the run, with the final checks folded
// into the violations. A storm event the backend refused and a checker
// that never sampled are errors: either would let the gate pass without
// having tested anything.
func (r chaosRig) outcome() (StormOutcome, error) {
	if err := r.inj.Err(); err != nil {
		return StormOutcome{}, err
	}
	if r.checker.Samples() == 0 {
		return StormOutcome{}, fmt.Errorf("experiments: chaos checker never sampled")
	}
	r.checker.Err()
	return StormOutcome{
		Delivered:    len(r.inj.Applied()),
		LostBytes:    r.mgr.LostBytes(),
		RebuiltBytes: r.mgr.RebuiltBytes(),
		Losses:       len(r.mgr.Losses()),
		Rebuilds:     len(r.mgr.Jobs()),
		Violations:   r.checker.Violations(),
	}, nil
}

// RunChaosStorm generates the seeded storm for fs's home deployment,
// wraps the backend in a repair.Manager, attaches the invariant checker
// and runs an op-level IOR foreground through it.
func RunChaosStorm(fs FS, seed uint64, opts Options) (ChaosReport, error) {
	opts = opts.withDefaults()
	machine, err := chaosMachine(fs)
	if err != nil {
		return ChaosReport{}, err
	}
	tb, err := buildTestbed(machine, fs, 2, nil)
	if err != nil {
		return ChaosReport{}, err
	}
	rig, err := armChaos(tb, fs, seed)
	if err != nil {
		return ChaosReport{}, err
	}
	cfg := ior.Config{
		Workload:     ior.Scientific,
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     8,
		ProcsPerNode: 4,
		OpLevel:      true, // ops re-resolve paths, so failover is live
		Seed:         opts.Seed + seed,
		Dir:          "/chaos",
	}
	if sys, ok := tb.System.(*vast.System); ok {
		written := int64(2*cfg.ProcsPerNode) * cfg.BlockSize * int64(cfg.Segments)
		rig.checker.Final("byte-conservation", invariants.ConserveBytes(
			func() int64 { return written },
			func() int64 { return sys.StagedBytes() + sys.MigratedBytes() }))
	}
	res, err := ior.Run(tb.Env, tb.Mounts, cfg)
	if err != nil {
		return ChaosReport{}, err
	}
	out, err := rig.outcome()
	if err != nil {
		return ChaosReport{}, err
	}
	return ChaosReport{Backend: string(fs), Machine: machine, Seed: seed,
		WriteBW: res.WriteBW, StormOutcome: out}, nil
}

// ChaosBackends lists every file system the gate covers: all of the
// deployment table's.
func ChaosBackends() []FS {
	var out []FS
	for _, fs := range cluster.FileSystems() {
		out = append(out, FS(fs))
	}
	return out
}
