package cluster

import (
	"fmt"

	"storagesim/internal/fsapi"
	"storagesim/internal/gpfs"
	"storagesim/internal/lustre"
	"storagesim/internal/netsim"
	"storagesim/internal/nvmelocal"
	"storagesim/internal/repair"
	"storagesim/internal/sim"
	"storagesim/internal/unifyfs"
	"storagesim/internal/vast"
)

// Backend is what every deployed storage system offers: node mounts and the
// fault-injection and rebuild hooks.
type Backend interface {
	repair.Protected
	Mount(node string, nic *netsim.Iface) fsapi.Client
}

// Deployment is one row of the deployment table: a storage system as one
// machine mounts it (Section IV-B).
type Deployment struct {
	Machine string
	FS      string
	// Shared marks a production file system other jobs contend on (GPFS,
	// Lustre); the rest are dedicated to the benchmark.
	Shared bool
	// NodeLocal marks a file system whose files only the node that wrote
	// them can see.
	NodeLocal bool
	recipe
}

// recipe is how a row builds its system: config, then New.
type recipe struct {
	config func(c *Cluster) any
	build  func(c *Cluster, mutate func(*vast.Config)) (Backend, error)
}

// Config returns the row's system configuration as deployed on c: a
// vast.Config, gpfs.Config, lustre.Config, nvmelocal.Config or
// unifyfs.Config.
func (d Deployment) Config(c *Cluster) any { return d.config(c) }

// deployments is the machine × file-system table. The first row of each
// file system is its home deployment (Home).
var deployments = []Deployment{
	{Machine: "Wombat", FS: "vast", recipe: fromConfig(WombatVASTConfig, vast.New)},
	{Machine: "Lassen", FS: "vast", recipe: fromConfig(lassenVASTConfig, vast.New)},
	{Machine: "Ruby", FS: "vast", recipe: fromConfig(rubyVASTConfig, vast.New)},
	{Machine: "Quartz", FS: "vast", recipe: fromConfig(quartzVASTConfig, vast.New)},
	{Machine: "Lassen", FS: "gpfs", Shared: true, recipe: fromConfig(gpfsLassenConfig, gpfs.New)},
	{Machine: "Ruby", FS: "lustre", Shared: true, recipe: fromConfig(lustreConfig, lustre.New)},
	{Machine: "Quartz", FS: "lustre", Shared: true, recipe: fromConfig(lustreConfig, lustre.New)},
	{Machine: "Wombat", FS: "nvme", NodeLocal: true, recipe: fromConfig(nvmeWombatConfig, nvmelocal.New)},
	{Machine: "Wombat", FS: "unifyfs", recipe: fromConfig(UnifyFSWombatConfig, unifyfs.New)},
}

// fromConfig is the recipe that builds a system from its deployment
// config. A VAST config mutator adjusts the config before New; it is an
// error on any other system.
func fromConfig[C any, S Backend](config func(*Cluster) C, newSys func(*sim.Env, *sim.Fabric, C) (S, error)) recipe {
	return recipe{
		config: func(c *Cluster) any { return config(c) },
		build: func(c *Cluster, mutate func(*vast.Config)) (Backend, error) {
			var cfg C
			v, isVAST := any(&cfg).(*vast.Config)
			if mutate != nil && !isVAST {
				return nil, fmt.Errorf("cluster: a VAST config mutator does not apply to %T", cfg)
			}
			if cfg = config(c); mutate != nil {
				mutate(v)
			}
			sys, err := newSys(c.Env, c.Fab, cfg)
			if err != nil {
				return nil, err
			}
			return sys, nil
		},
	}
}

// Deployments returns the table in row order.
func Deployments() []Deployment { return append([]Deployment(nil), deployments...) }

// Lookup returns the row deploying fs on machine.
func Lookup(machine, fs string) (Deployment, error) {
	for _, d := range deployments {
		if d.Machine == machine && d.FS == fs {
			return d, nil
		}
	}
	return Deployment{}, fmt.Errorf("cluster: no deployment of %s on %s", fs, machine)
}

// Home returns fs's home deployment: its first row.
func Home(fs string) (Deployment, error) {
	for _, d := range deployments {
		if d.FS == fs {
			return d, nil
		}
	}
	return Deployment{}, fmt.Errorf("cluster: no deployment of %s", fs)
}

// FileSystems returns every file system of the table, in row order.
func FileSystems() []string {
	var out []string
	seen := map[string]bool{}
	for _, d := range deployments {
		if !seen[d.FS] {
			seen[d.FS] = true
			out = append(out, d.FS)
		}
	}
	return out
}

// Testbed is a deployment instantiated on a cluster with every node
// mounted.
type Testbed struct {
	*Cluster
	Deployment
	System Backend
	// Mounts holds one client per node, named after the node.
	Mounts []fsapi.Client
	// Derate scales the system's server side (the contention model); nil
	// for node-local and job-private systems, which nobody else contends on.
	Derate func(f float64)
}

// Deploy builds fs as cl's machine mounts it and mounts every node of cl.
// mutate, when non-nil, adjusts a VAST config before the system is built.
func Deploy(cl *Cluster, fs string, mutate func(*vast.Config)) (*Testbed, error) {
	d, err := Lookup(cl.Spec.Name, fs)
	if err != nil {
		return nil, err
	}
	sys, err := d.build(cl, mutate)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Cluster: cl, Deployment: d, System: sys}
	if r, ok := sys.(interface{ Derate(float64) }); ok {
		tb.Derate = r.Derate
	}
	for _, n := range cl.Nodes() {
		tb.Mounts = append(tb.Mounts, sys.Mount(n.Name, n.NIC))
	}
	return tb, nil
}

// Build instantiates n nodes of machine on env and fab and deploys fs on
// them (see Deploy).
func Build(env *sim.Env, fab *sim.Fabric, machine, fs string, n int, mutate func(*vast.Config)) (*Testbed, error) {
	spec, err := MachineByName(machine)
	if err != nil {
		return nil, err
	}
	cl, err := New(env, fab, spec, n)
	if err != nil {
		return nil, err
	}
	return Deploy(cl, fs, mutate)
}

// TenantMount mints tenant its own client on node i, named node/tenant:
// the traffic engine gives each tenant its own tagged view of the node.
func (tb *Testbed) TenantMount(tenant string, i int) fsapi.Client {
	n := tb.Node(i)
	return tb.System.Mount(n.Name+"/"+tenant, n.NIC)
}
