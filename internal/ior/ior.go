// Package ior re-implements the IOR benchmark's measurement logic (the
// paper uses IOR-4.1.0) against the simulated file systems: POSIX API,
// file-per-process (N-N) layout, sequential writes for scientific
// workloads, sequential reads for data analytics, random reads for ML, a
// per-write fsync mode for the single-node raw-performance tests, and task
// reordering so a rank never reads the file it wrote (Section IV-C.1 and
// Section V).
//
// Bandwidth accounting follows IOR: aggregate bytes moved divided by the
// slowest rank's phase time.
package ior

import (
	"fmt"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/units"
)

// Workload names the three I/O personalities of the paper's Section V.
type Workload int

const (
	// Scientific: bulk-synchronous sequential writes (CM1, HACC-I/O).
	Scientific Workload = iota
	// Analytics: high-availability sequential reads (BD-CATS, KMeans).
	Analytics
	// ML: random reads (out-of-core sorting, database-like access).
	ML
)

// String returns the workload name.
func (w Workload) String() string {
	switch w {
	case Scientific:
		return "scientific(seq-write)"
	case Analytics:
		return "analytics(seq-read)"
	case ML:
		return "ml(random-read)"
	}
	return "unknown"
}

// Config parameterizes one IOR run.
type Config struct {
	// Workload selects the access pattern (write/read phase mix).
	Workload Workload
	// BlockSize is the contiguous chunk per segment per rank (IOR -b).
	BlockSize int64
	// TransferSize is the size of one I/O call (IOR -t).
	TransferSize int64
	// Segments is the segment count (IOR -s).
	Segments int
	// ProcsPerNode is the ranks per node (44 on Lassen, 48 on Wombat).
	ProcsPerNode int
	// Fsync issues a per-write fsync (the single-node raw test, IOR -e
	// semantics applied per transfer as in Section V's description).
	Fsync bool
	// ReorderTasks makes rank r read the file written by rank r+PPN (IOR
	// -C), defeating process-local caches.
	ReorderTasks bool
	// SharedFile switches to the N-1 layout the paper avoided: all ranks
	// share one file in IOR's segmented layout, paying byte-range locking
	// and losing sequentiality at the devices (see shared.go).
	SharedFile bool
	// LockLatency overrides the byte-range lock round trip for shared-file
	// writes (0 = default).
	LockLatency sim.Duration
	// OpLevel forces per-operation simulation; by default runs with fsync
	// use op level and pure streaming runs use flow level.
	OpLevel bool
	// Seed feeds the random-offset generator of ML reads.
	Seed uint64
	// Dir prefixes the per-rank file names.
	Dir string
	// OnSegment, when set on an op-level run, is called as each rank
	// finishes a segment (rank, completion time, segment bytes) —
	// samplers use it to trace delivered foreground bandwidth over time
	// without touching fabric internals.
	OnSegment func(rank int, at sim.Time, bytes int64)
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	switch {
	case c.BlockSize <= 0 || c.TransferSize <= 0 || c.Segments <= 0:
		return fmt.Errorf("ior: block, transfer and segment counts must be positive")
	case c.BlockSize%c.TransferSize != 0:
		return fmt.Errorf("ior: block size must be a multiple of transfer size")
	case c.ProcsPerNode <= 0:
		return fmt.Errorf("ior: need at least one process per node")
	}
	return nil
}

// BytesPerRank returns the file size each rank moves.
func (c *Config) BytesPerRank() int64 { return c.BlockSize * int64(c.Segments) }

// PerOp reports whether the run simulates every operation: OpLevel, or
// Fsync, which implies it.
func (c *Config) PerOp() bool { return c.OpLevel || c.Fsync }

// Result is the outcome of one run.
type Result struct {
	// WriteBW and ReadBW are aggregate bandwidths in bytes/sec; a phase
	// that did not run reports 0.
	WriteBW float64
	ReadBW  float64
	// WriteTime and ReadTime are the slowest rank's phase durations.
	WriteTime sim.Duration
	ReadTime  sim.Duration
	// Ranks is nodes × procs-per-node.
	Ranks int
	// BytesPerRank echoes the per-rank volume.
	BytesPerRank int64
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("ranks=%d write=%s read=%s", r.Ranks,
		units.BPS(r.WriteBW), units.BPS(r.ReadBW))
}

// Run executes the benchmark on the given per-node mounts. mounts[i] is the
// client of node i; every node runs cfg.ProcsPerNode ranks. The write phase
// always runs (it creates the files); the read phase runs for Analytics and
// ML workloads. Bandwidth is reported per phase.
func Run(env *sim.Env, mounts []fsapi.Client, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(mounts) == 0 {
		return Result{}, fmt.Errorf("ior: need at least one mount")
	}
	ranks := len(mounts) * cfg.ProcsPerNode
	res := Result{Ranks: ranks, BytesPerRank: cfg.BytesPerRank()}
	start := env.Now()

	// Phase 1: write. All ranks write their own file (or their interleaved
	// segments of the shared file) concurrently.
	locks := newLockState(env, cfg, ranks)
	var writeEnd sim.Time
	wg := sim.NewWaitGroup(env)
	for r := 0; r < ranks; r++ {
		r := r
		cl := mounts[r/cfg.ProcsPerNode]
		wg.Go(fmt.Sprintf("ior-w%d", r), func(p *sim.Proc) {
			writeRank(p, cl, cfg, r, ranks, locks)
			if p.Now() > writeEnd {
				writeEnd = p.Now()
			}
		})
	}
	var readEnd, readStart sim.Time
	env.Go("ior-coordinator", func(p *sim.Proc) {
		wg.Wait(p)
		if cfg.Workload == Scientific {
			return
		}
		// Between phases: drop client caches (the paper's "a different
		// client read the requests than the one who generated the writes").
		for _, m := range mounts {
			m.DropCaches()
		}
		readStart = p.Now()
		rg := sim.NewWaitGroup(env)
		for r := 0; r < ranks; r++ {
			r := r
			cl := mounts[r/cfg.ProcsPerNode]
			rg.Go(fmt.Sprintf("ior-r%d", r), func(p *sim.Proc) {
				readRank(p, cl, cfg, r, ranks)
				if p.Now() > readEnd {
					readEnd = p.Now()
				}
			})
		}
		rg.Wait(p)
	})
	env.Run()

	res.WriteTime = writeEnd.Sub(start)
	if res.WriteTime > 0 {
		res.WriteBW = float64(res.BytesPerRank) * float64(ranks) / res.WriteTime.Seconds()
	}
	if cfg.Workload != Scientific {
		res.ReadTime = readEnd.Sub(readStart)
		if res.ReadTime > 0 {
			res.ReadBW = float64(res.BytesPerRank) * float64(ranks) / res.ReadTime.Seconds()
		}
	}
	return res, nil
}

// fileName is the per-rank file path (one shared path in N-1 mode).
func fileName(cfg Config, rank int) string {
	if cfg.SharedFile {
		return cfg.Dir + "/ior.shared"
	}
	return fmt.Sprintf("%s/ior.%08d", cfg.Dir, rank)
}

// writeRank writes one rank's file (N-N) or its interleaved segments of
// the shared file (N-1).
func writeRank(p *sim.Proc, cl fsapi.Client, cfg Config, rank, ranks int, locks *lockState) {
	total := cfg.BytesPerRank()
	if !cfg.PerOp() {
		access := fsapi.Sequential
		if cfg.SharedFile {
			// Interleaved segments destroy sequentiality at the devices.
			access = fsapi.Random
		}
		cl.StreamWrite(p, fileName(cfg, rank), access, cfg.TransferSize, total)
		return
	}
	f := cl.Open(p, fileName(cfg, rank), rank == 0 || !cfg.SharedFile)
	perBlock := cfg.BlockSize / cfg.TransferSize
	for s := 0; s < cfg.Segments; s++ {
		for tIdx := int64(0); tIdx < perBlock; tIdx++ {
			off := int64(s)*cfg.BlockSize + tIdx*cfg.TransferSize
			if cfg.SharedFile {
				off = sharedOffset(cfg, rank, ranks, s, tIdx*cfg.TransferSize)
				locks.acquire(p)
			}
			f.WriteAt(p, off, cfg.TransferSize)
			if cfg.Fsync {
				f.Fsync(p)
			}
		}
		if cfg.OnSegment != nil {
			cfg.OnSegment(rank, p.Now(), cfg.BlockSize)
		}
	}
	f.Close(p)
}

// readRank reads the (possibly reordered) peer's file with the workload's
// pattern.
func readRank(p *sim.Proc, cl fsapi.Client, cfg Config, rank, ranks int) {
	src := rank
	if cfg.ReorderTasks {
		src = (rank + cfg.ProcsPerNode) % ranks
	}
	total := cfg.BytesPerRank()
	access := fsapi.Sequential
	if cfg.Workload == ML {
		access = fsapi.Random
	}
	if cfg.SharedFile && access == fsapi.Sequential {
		// Reading a peer's interleaved segments is non-contiguous on disk.
		access = fsapi.Random
	}
	if !cfg.PerOp() {
		cl.StreamRead(p, fileName(cfg, src), access, cfg.TransferSize, total)
		return
	}
	f := cl.Open(p, fileName(cfg, src), false)
	perBlock := cfg.BlockSize / cfg.TransferSize
	nOps := total / cfg.TransferSize
	if cfg.SharedFile {
		for s := 0; s < cfg.Segments; s++ {
			for tIdx := int64(0); tIdx < perBlock; tIdx++ {
				f.ReadAt(p, sharedOffset(cfg, src, ranks, s, tIdx*cfg.TransferSize), cfg.TransferSize)
			}
		}
	} else if access == fsapi.Random {
		rng := stats.NewRNG(cfg.Seed + uint64(rank)*0x9e37)
		order := rng.Perm(int(nOps))
		for _, i := range order {
			f.ReadAt(p, int64(i)*cfg.TransferSize, cfg.TransferSize)
		}
	} else {
		for off := int64(0); off < total; off += cfg.TransferSize {
			f.ReadAt(p, off, cfg.TransferSize)
		}
	}
	f.Close(p)
}
