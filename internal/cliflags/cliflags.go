// Package cliflags declares the flag groups the storagesim commands share,
// so a flag several commands take is spelled, defaulted, described and
// checked in one place:
//
//   - testbed: -machine, -fs and -nodes, checked against the deployment
//     table (cluster.Deployments), which also writes their help text;
//   - profile: -cpuprofile and -memprofile;
//   - faults: -faults, the JSON fault schedule file;
//   - racks: -racks, -domains and -remote, the domain-sharded layout.
//
// Each Add function registers its group on the default flag set; call it
// before flag.Parse. Fatal is the commands' one way to report an error and
// exit 1.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"storagesim/internal/cluster"
	"storagesim/internal/faults"
)

// Testbed holds the -machine, -fs and -nodes flags.
type Testbed struct {
	Machine string
	FS      string
	Nodes   int
}

// AddTestbed registers -machine, -fs (default vast) and -nodes with the
// given defaults.
func AddTestbed(machine string, nodes int) *Testbed {
	t := AddFS("", nodes)
	flag.StringVar(&t.Machine, "machine", machine, machineChoices())
	return t
}

// AddFS registers -fs (default vast) and -nodes. A command that always runs
// on one machine names it; -fs then lists only that machine's systems.
func AddFS(machine string, nodes int) *Testbed {
	t := &Testbed{Machine: machine}
	flag.StringVar(&t.FS, "fs", "vast", fsChoices(machine))
	flag.IntVar(&t.Nodes, "nodes", nodes, "compute nodes")
	return t
}

// AddProjection registers a replay target: -project (the file system,
// empty for none), -machine (default Lassen) and -nodes (default 1).
func AddProjection() *Testbed {
	t := &Testbed{}
	flag.StringVar(&t.FS, "project", "", "replay the trace on this deployment: "+fsChoices(""))
	flag.StringVar(&t.Machine, "machine", "Lassen", "machine for -project: "+machineChoices())
	flag.IntVar(&t.Nodes, "nodes", 1, "nodes for -project")
	return t
}

// Check lower-cases the file system and, unless machine and file system
// name a row of the deployment table, prints the table's error and exits
// 1. Call it after flag.Parse, before any simulation.
func (t *Testbed) Check() {
	t.FS = strings.ToLower(t.FS)
	if _, err := cluster.Lookup(t.Machine, t.FS); err != nil {
		Fatal(err)
	}
}

// Fatal prints err after the command's name and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}

// machineChoices lists the Table I machines: "Lassen, Ruby, Quartz or
// Wombat".
func machineChoices() string {
	var names []string
	for _, m := range cluster.Machines() {
		names = append(names, m.Name)
	}
	return orList(names)
}

// fsChoices lists the file systems of the deployment table with the
// machines that mount each, or only machine's file systems when machine
// is non-empty.
func fsChoices(machine string) string {
	var choices []string
	for _, fs := range cluster.FileSystems() {
		var on []string
		for _, d := range cluster.Deployments() {
			if d.FS == fs && (machine == "" || d.Machine == machine) {
				on = append(on, d.Machine)
			}
		}
		if machine == "" {
			choices = append(choices, fs+" ("+strings.Join(on, ", ")+")")
		} else if len(on) > 0 {
			choices = append(choices, fs)
		}
	}
	return orList(choices)
}

// orList joins items as "a, b or c".
func orList(items []string) string {
	if len(items) < 2 {
		return strings.Join(items, "")
	}
	return strings.Join(items[:len(items)-1], ", ") + " or " + items[len(items)-1]
}

// Profile holds the -cpuprofile and -memprofile flags.
type Profile struct {
	cpu, mem string
}

// AddProfile registers -cpuprofile and -memprofile.
func AddProfile() *Profile {
	p := &Profile{}
	flag.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&p.mem, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling when -cpuprofile is set and returns a stop
// function that ends it and, when -memprofile is set, writes a heap
// profile after a forced GC, so the profile shows live retention rather
// than garbage awaiting collection. Defer the stop function at once.
// Errors are reported, not fatal: a failed profile must never take down
// the run it was observing.
func (p *Profile) Start() (stop func()) {
	report := func(name string, err error) { fmt.Fprintf(os.Stderr, "profiling: -%s: %v\n", name, err) }
	stopCPU := func() {}
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			report("cpuprofile", err)
		} else {
			stopCPU = pprof.StopCPUProfile
		}
	}
	return func() {
		stopCPU()
		if p.mem == "" {
			return
		}
		f, err := os.Create(p.mem)
		if err != nil {
			report("memprofile", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			report("memprofile", err)
		}
	}
}

// Faults holds the -faults flag.
type Faults struct {
	path string
}

// AddFaults registers -faults.
func AddFaults() *Faults {
	f := &Faults{}
	flag.StringVar(&f.path, "faults", "", "JSON fault schedule to inject during the run (see internal/faults)")
	return f
}

// Set reports whether -faults names a file.
func (f *Faults) Set() bool { return f.path != "" }

// Schedule reads and parses the -faults file; without one it returns the
// empty schedule.
func (f *Faults) Schedule() (faults.Schedule, error) {
	if f.path == "" {
		return faults.Schedule{}, nil
	}
	data, err := os.ReadFile(f.path)
	if err != nil {
		return faults.Schedule{}, err
	}
	return faults.ParseSchedule(data)
}

// Racks holds the -racks, -domains and -remote flags.
type Racks struct {
	Racks   int
	Domains int
	Remote  float64
}

// AddRacks registers -racks with the given default and help text, and
// -domains and -remote.
func AddRacks(racks int, usage string) *Racks {
	r := &Racks{}
	flag.IntVar(&r.Racks, "racks", racks, usage)
	flag.IntVar(&r.Domains, "domains", 0, "executors advancing the racks in parallel (0 = GOMAXPROCS); results are identical for every value")
	flag.Float64Var(&r.Remote, "remote", 0.25, "fraction of requests placed on another rack (racks > 1)")
	return r
}
