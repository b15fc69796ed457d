package experiments

import (
	"fmt"
	"time"

	"storagesim/internal/cluster"
	"storagesim/internal/faults"
	"storagesim/internal/ior"
	"storagesim/internal/stats"
)

// Degraded-mode studies: what the paper's deployments deliver while
// servers are down. The fault-injection engine (internal/faults) delivers
// a schedule of timed events through the simulation event loop, so every
// degraded run with a fixed seed and schedule is byte-reproducible.

// RunIORWithFaults builds the machine+fs testbed, arms the fault schedule
// on it (the whole deployment registers under the fs name, so schedules
// may leave "target" empty), and runs one IOR configuration. It returns
// the result and the events actually delivered — the entry point for
// cmd/iorbench's -faults flag. A schedule event the backend refuses
// (failing its last healthy server) is returned as the error.
func RunIORWithFaults(machine string, fs FS, nodes int, cfg ior.Config, sched faults.Schedule) (ior.Result, []faults.Applied, error) {
	tb, err := iorTestbed(machine, fs, nodes, cfg)
	if err != nil {
		return ior.Result{}, nil, err
	}
	inj, err := injectFaults(tb, string(fs), tb.System, sched)
	if err != nil {
		return ior.Result{}, nil, err
	}
	res, err := ior.Run(tb.Env, tb.Mounts, cfg)
	if err == nil {
		err = inj.Err()
	}
	if err != nil {
		return ior.Result{}, nil, err
	}
	return res, inj.Applied(), nil
}

// injectFaults registers target under name with a fresh injector on tb's
// env and arms sched. A fail the target refuses surfaces after the run as
// the injector's Err.
func injectFaults(tb *cluster.Testbed, name string, target faults.Target, sched faults.Schedule) (*faults.Injector, error) {
	inj := faults.NewInjector(tb.Env)
	inj.Register(name, target)
	if err := inj.Apply(sched); err != nil {
		return nil, err
	}
	return inj, nil
}

// DegradedSweep sweeps the fraction of failed servers and reports the
// delivered IOR write bandwidth for each deployment — the degraded-mode
// counterpart of the scalability figures. Servers fail 10 ms into the run
// (mid-stream, not before it), so each point carries a short healthy
// prefix exactly like an operational incident.
func DegradedSweep(opts Options) (Panel, error) {
	opts = opts.withDefaults()
	p := Panel{
		ID:     "degraded-sweep",
		Title:  "Degraded-mode IOR writes vs fraction of failed servers",
		XLabel: "failed",
		YLabel: "write GB/s",
	}
	type deployment struct {
		name    string
		machine string
		fs      FS
		nodes   int
		servers int
	}
	// Server counts follow Section IV-B: 8 CNodes on Wombat, 16 NSD
	// servers on Lassen, 36 OSSes on Ruby.
	deps := []deployment{
		{"vast/Wombat", "Wombat", VAST, 2, 8},
		{"gpfs/Lassen", "Lassen", GPFS, 2, 16},
		{"lustre/Ruby", "Ruby", Lustre, 2, 36},
	}
	fracs := []float64{0, 0.125, 0.25, 0.5}
	if opts.Quick {
		fracs = []float64{0, 0.25, 0.5}
	}
	segments := 96
	if opts.Quick {
		segments = 32
	}
	for _, d := range deps {
		series := stats.Series{Name: d.name}
		for _, frac := range fracs {
			failures := int(frac * float64(d.servers))
			sched := faults.Schedule{}
			for i := 0; i < failures; i++ {
				sched.Events = append(sched.Events, faults.Event{
					At: 10 * time.Millisecond, Kind: faults.ServerFail, Index: i,
				})
			}
			res, _, err := RunIORWithFaults(d.machine, d.fs, d.nodes, ior.Config{
				Workload:     ior.Scientific,
				BlockSize:    1 << 20,
				TransferSize: 1 << 20,
				Segments:     segments,
				ProcsPerNode: 8,
				OpLevel:      true, // ops re-resolve paths, so failover is live
				Seed:         opts.Seed,
				Dir:          "/degraded",
			}, sched)
			if err != nil {
				return Panel{}, err
			}
			series.Points = append(series.Points,
				stats.Point{X: frac, Y: res.WriteBW / 1e9})
			series.Err = append(series.Err, 0)
		}
		p.Series = append(p.Series, series)
	}
	p.Notes = append(p.Notes,
		"servers fail 10ms into the run; failed fraction rounds down to whole servers",
		fmt.Sprintf("seed %#x; same seed and schedule reproduce these bytes exactly", opts.Seed),
	)
	return p, nil
}
