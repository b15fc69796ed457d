package invariants_test

import (
	"fmt"
	"testing"
	"time"

	"storagesim/internal/device"
	"storagesim/internal/faults"
	"storagesim/internal/faults/invariants"
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

// backendCase builds one small deployment, returns it as a fault target
// with its rebuild hooks, and mounts `caseClients` clients on it.
type backendCase struct {
	name  string
	build func(env *sim.Env, fab *sim.Fabric) (repair.Protected, []fsapi.Client)
}

const (
	caseClients = 3
	caseTotal   = int64(256 << 20) // per client
)

func vastCase(env *sim.Env, fab *sim.Fabric) (repair.Protected, []fsapi.Client) {
	sys := vast.MustNew(env, fab, vast.Config{
		Name: "vast-inv", CNodes: 4, DBoxes: 2, DNodesPerDBox: 2,
		SCMPerDBox: 4, QLCPerDBox: 8,
		CNodeNICBW: 10e9, ReduceBWPerCNode: 2e9, FabricBWPerDBox: 10e9,
		FabricLatency: time.Microsecond, SCMReplicas: 2,
		Transport: &netsim.TCPTransport{PerConnBW: 5e9, Connections: 1, RPC: 20 * time.Microsecond},
		Retry:     netsim.RetryPolicy{Timeout: time.Millisecond, Multiplier: 2, MaxTimeout: 20 * time.Millisecond},
	})
	return sys, mounts(fab, func(name string, nic *netsim.Iface) fsapi.Client { return sys.Mount(name, nic) })
}

func gpfsCase(env *sim.Env, fab *sim.Fabric) (repair.Protected, []fsapi.Client) {
	sys := gpfs.MustNew(env, fab, gpfs.Config{
		Name: "gpfs-inv", NSDServers: 4, ServerNICBW: 10e9,
		RaidPerServer: device.GPFSRaidSpec("raid"), ServerMemBW: 40e9,
		ClientStreamCap: 14.5e9, ClientWriteCap: 10e9,
		CacheBlockBytes: 1 << 20, RPCLatency: 50 * time.Microsecond,
	})
	return sys, mounts(fab, func(name string, nic *netsim.Iface) fsapi.Client { return sys.Mount(name, nic) })
}

func lustreCase(env *sim.Env, fab *sim.Fabric) (repair.Protected, []fsapi.Client) {
	sys := lustre.MustNew(env, fab, lustre.Config{
		Name: "lustre-inv", MDSCount: 2, MDSLatency: 50 * time.Microsecond,
		OSSCount: 4, OSTPerOSS: device.LustreOSTSpec("ost"), ServerNICBW: 10e9,
		RPCLatency: 50 * time.Microsecond,
	})
	return sys, mounts(fab, func(name string, nic *netsim.Iface) fsapi.Client { return sys.Mount(name, nic) })
}

func unifyfsCase(env *sim.Env, fab *sim.Fabric) (repair.Protected, []fsapi.Client) {
	ic := netsim.NewLinkBank(fab, "uf-ic", 2, 12.5e9, 2*time.Microsecond)
	sys := unifyfs.MustNew(env, fab, unifyfs.Config{
		Name: "uf-inv", PerNode: device.NVMe970ProSpec("nvme"),
		Placement: unifyfs.RoundRobin, ChunkBytes: 1 << 20,
		IOServersPerNode: 4, ServerLatency: 10 * time.Microsecond, Interconnect: ic,
	})
	return sys, mounts(fab, func(name string, nic *netsim.Iface) fsapi.Client { return sys.Mount(name, nic) })
}

func nvmeCase(env *sim.Env, fab *sim.Fabric) (repair.Protected, []fsapi.Client) {
	ic := netsim.NewLinkBank(fab, "nv-ic", 2, 12.5e9, 2*time.Microsecond)
	sys := nvmelocal.MustNew(env, fab, nvmelocal.Config{
		Name: "nv-inv", PerNode: device.NVMe970ProSpec("nvme"),
		MemBW: 40e9, DirtyLimitBytes: 1 << 30,
		Interconnect: ic,
	})
	return sys, mounts(fab, func(name string, nic *netsim.Iface) fsapi.Client { return sys.Mount(name, nic) })
}

func mounts(fab *sim.Fabric, mount func(string, *netsim.Iface) fsapi.Client) []fsapi.Client {
	var out []fsapi.Client
	for i := 0; i < caseClients; i++ {
		name := fmt.Sprintf("n%d", i)
		out = append(out, mount(name, netsim.NewIface(fab, name+"/nic", 12.5e9, time.Microsecond)))
	}
	return out
}

func cases() []backendCase {
	return []backendCase{
		{"vast", vastCase},
		{"gpfs", gpfsCase},
		{"lustre", lustreCase},
		{"unifyfs", unifyfsCase},
		{"nvmelocal", nvmeCase},
	}
}

// TestInvariantsUnderFaults drives every backend through a fail → derate →
// restore → recover schedule while streaming writes, with the invariant
// sampler attached: no pipe may be over-allocated, the clock must be
// monotonic, and the run must terminate (the sampler may not keep the loop
// alive). Runs under -race in `make check`.
func TestInvariantsUnderFaults(t *testing.T) {
	for _, bc := range cases() {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			env := sim.NewEnv()
			fab := sim.NewFabric(env)
			tgt, clients := bc.build(env, fab)
			chk := invariants.Attach(env, fab, 500*time.Microsecond)
			inj := faults.NewInjector(env)
			inj.Register(bc.name, tgt)
			err := inj.Apply(faults.Schedule{Events: []faults.Event{
				{At: 2 * time.Millisecond, Kind: faults.ServerFail, Index: 0},
				{At: 4 * time.Millisecond, Kind: faults.LinkDerate, Factor: 0.5},
				{At: 6 * time.Millisecond, Kind: faults.MediaDerate, Factor: 0.7},
				{At: 8 * time.Millisecond, Kind: faults.LinkRestore},
				{At: 10 * time.Millisecond, Kind: faults.MediaRestore},
				{At: 12 * time.Millisecond, Kind: faults.ServerRecover, Index: 0},
			}})
			if err != nil {
				t.Fatal(err)
			}
			done := 0
			for i, cl := range clients {
				i, cl := i, cl
				env.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
					cl.StreamWrite(p, fmt.Sprintf("/inv/%d", i), fsapi.Sequential, 1<<20, caseTotal)
					done++
				})
			}
			env.Run()
			if done != len(clients) {
				t.Fatalf("%d of %d writers finished", done, len(clients))
			}
			if len(inj.Applied()) != 6 {
				t.Fatalf("delivered %d of 6 fault events", len(inj.Applied()))
			}
			if chk.Samples() == 0 {
				t.Fatal("invariant sampler never ran")
			}
			if err := chk.Err(); err != nil {
				t.Fatalf("%v\nall: %v", err, chk.Violations())
			}
		})
	}
}

// TestNoOpFaultPairs asserts that delivering (fail at t, recover at t) —
// for a server and for a redundancy unit — and a derate/restore pair, and
// recovering a unit that was failed and half rebuilt, each leave every
// pipe's capacity state byte-identical to never having faulted at all.
func TestNoOpFaultPairs(t *testing.T) {
	for _, bc := range cases() {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			env := sim.NewEnv()
			fab := sim.NewFabric(env)
			tgt, _ := bc.build(env, fab)
			before := invariants.Snapshot(fab)
			inj := faults.NewInjector(env)
			inj.Register(bc.name, tgt)
			at := sim.Duration(3 * time.Millisecond)
			err := inj.Apply(faults.Schedule{Events: []faults.Event{
				{At: at, Kind: faults.ServerFail, Index: 0},
				{At: at, Kind: faults.LinkDerate, Factor: 0.25},
				{At: at, Kind: faults.MediaDerate, Factor: 0.5},
				{At: at, Kind: faults.MediaRestore},
				{At: at, Kind: faults.LinkRestore},
				{At: at, Kind: faults.ServerRecover, Index: 0},
				{At: 2 * at, Kind: faults.UnitFail, Index: 0},
				{At: 2 * at, Kind: faults.UnitRecover, Index: 0},
			}})
			if err != nil {
				t.Fatal(err)
			}
			unchanged := func(what string) func() {
				return func() {
					if err := invariants.DiffStates(before, invariants.Snapshot(fab)); err != nil {
						t.Errorf("%s changed fabric state: %v", what, err)
					}
				}
			}
			env.Schedule(sim.Time(at+time.Millisecond), unchanged("server and derate pairs"))
			env.Schedule(sim.Time(2*at+time.Millisecond), unchanged("unit pair"))
			env.Schedule(sim.Time(3*at), func() {
				if err := tgt.FailUnit(0); err != nil {
					t.Error(err)
				}
				tgt.SetUnitRebuild(0, 0.5)
				tgt.RecoverUnit(0)
			})
			env.Run()
			if err := inj.Err(); err != nil {
				t.Fatal(err)
			}
			unchanged("half-rebuilt unit recovery")()
		})
	}
}

// TestVASTConservation runs a faulted VAST write workload and asserts the
// conservation invariant: every byte the workload wrote is either still
// staged in SCM or has been migrated to QLC.
func TestVASTConservation(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	tgt, clients := vastCase(env, fab)
	sys := tgt.(*vast.System)
	chk := invariants.Attach(env, fab, time.Millisecond)
	inj := faults.NewInjector(env)
	inj.Register("vast", tgt)
	if err := inj.Apply(faults.Schedule{Events: []faults.Event{
		{At: 2 * time.Millisecond, Kind: faults.ServerFail, Index: 1},
		{At: 9 * time.Millisecond, Kind: faults.ServerRecover, Index: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	var written int64
	for i, cl := range clients {
		i, cl := i, cl
		env.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			cl.StreamWrite(p, fmt.Sprintf("/c/%d", i), fsapi.Sequential, 1<<20, caseTotal)
			written += caseTotal
		})
	}
	chk.Final("vast-conservation", invariants.ConserveBytes(
		func() int64 { return written },
		func() int64 { return sys.StagedBytes() + sys.MigratedBytes() },
	))
	env.Run()
	if written != caseTotal*int64(len(clients)) {
		t.Fatalf("wrote %d bytes, want %d", written, caseTotal*int64(len(clients)))
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
}
