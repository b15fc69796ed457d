package cluster

import (
	"strings"
	"testing"

	"storagesim/internal/sim"
	"storagesim/internal/vast"
)

func TestMachinesMatchTableI(t *testing.T) {
	ms := Machines()
	if len(ms) != 4 {
		t.Fatalf("machines = %d, want 4", len(ms))
	}
	want := []struct {
		name  string
		nodes int
		cpus  int
		gpus  int
		ram   int
	}{
		{"Lassen", 795, 44, 4, 256},
		{"Ruby", 1512, 56, 0, 192},
		{"Quartz", 3018, 36, 0, 128},
		{"Wombat", 8, 48, 2, 512},
	}
	for i, w := range want {
		m := ms[i]
		if m.Name != w.name || m.Nodes != w.nodes || m.CPUsPerNode != w.cpus ||
			m.GPUsPerNode != w.gpus || m.RAMGB != w.ram {
			t.Errorf("row %d = %+v, want %+v", i, m, w)
		}
		if m.NodeNICBW <= 0 {
			t.Errorf("%s has no NIC bandwidth", m.Name)
		}
	}
}

func TestMachineByName(t *testing.T) {
	m, err := MachineByName("Wombat")
	if err != nil || m.Name != "Wombat" {
		t.Fatalf("lookup failed: %v %v", m, err)
	}
	if _, err := MachineByName("Frontier"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestClusterInstantiation(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	c, err := New(env, fab, LassenSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 4 || len(c.Nodes()) != 4 {
		t.Fatalf("size = %d", c.Size())
	}
	names := map[string]bool{}
	for i := 0; i < 4; i++ {
		n := c.Node(i)
		if n.NIC == nil {
			t.Fatalf("node %d has no NIC", i)
		}
		if names[n.Name] {
			t.Fatalf("duplicate node name %s", n.Name)
		}
		names[n.Name] = true
	}
}

func TestClusterBounds(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	if _, err := New(env, fab, WombatSpec(), 9); err == nil {
		t.Fatal("oversubscribed Wombat accepted (has 8 nodes)")
	}
	if _, err := New(env, fab, WombatSpec(), 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestTableIRendering(t *testing.T) {
	out := TableI()
	for _, want := range []string{"Lassen", "Ruby", "Quartz", "Wombat", "IB EDR", "Omni-Path", "795", "3018"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestDeploymentsConstruct(t *testing.T) {
	for _, d := range Deployments() {
		env := sim.NewEnv()
		spec, err := MachineByName(d.Machine)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := Deploy(MustNew(env, sim.NewFabric(env), spec, 2), d.FS, nil)
		if err != nil {
			t.Fatalf("%s on %s: %v", d.FS, d.Machine, err)
		}
		if tb.System == nil || len(tb.Mounts) != 2 {
			t.Fatalf("%s on %s: system %v, %d mounts", d.FS, d.Machine, tb.System, len(tb.Mounts))
		}
		if (tb.Derate == nil) != (d.NodeLocal || d.FS == "unifyfs") {
			t.Errorf("%s on %s: derate set = %v", d.FS, d.Machine, tb.Derate != nil)
		}
		if home, err := Home(d.FS); err != nil || home.FS != d.FS {
			t.Errorf("%s has no home row: %v", d.FS, err)
		}
	}
}

func TestDeployRejects(t *testing.T) {
	env := sim.NewEnv()
	lassen := MustNew(env, sim.NewFabric(env), LassenSpec(), 1)
	if _, err := Deploy(lassen, "nvme", nil); err == nil || err.Error() != "cluster: no deployment of nvme on Lassen" {
		t.Fatalf("nvme on Lassen: %v", err)
	}
	if _, err := Deploy(lassen, "gpfs", func(*vast.Config) {}); err == nil {
		t.Fatal("a VAST mutator on GPFS was accepted")
	}
}

// TestMutatorOnEveryVASTRow: the VAST config mutator reaches the system on
// every machine that mounts VAST, not only Wombat.
func TestMutatorOnEveryVASTRow(t *testing.T) {
	for _, d := range Deployments() {
		if d.FS != "vast" {
			continue
		}
		env := sim.NewEnv()
		spec, _ := MachineByName(d.Machine)
		tb, err := Deploy(MustNew(env, sim.NewFabric(env), spec, 1), "vast", func(c *vast.Config) { c.CNodes = 3 })
		if err != nil {
			t.Fatal(err)
		}
		if n := tb.System.(*vast.System).HealthyCNodes(); n != 3 {
			t.Errorf("vast on %s: %d CNodes, want the mutated 3", d.Machine, n)
		}
	}
}

func TestWombatVASTConfigMatchesPaper(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	c := MustNew(env, fab, WombatSpec(), 1)
	cfg := WombatVASTConfig(c)
	if cfg.CNodes != 8 {
		t.Errorf("Wombat CNodes = %d, want 8", cfg.CNodes)
	}
	if !cfg.SpreadAcrossCNodes {
		t.Error("Wombat must spread nconnect across CNodes (multipath)")
	}
	if cfg.SCMReplicas != 2 {
		t.Errorf("SCM replicas = %d, want 2", cfg.SCMReplicas)
	}
}

func TestGatewaySpecsMatchSectionIVB(t *testing.T) {
	// Lassen: 1 gateway x 2x100Gb = 25 GB/s; Ruby: 8 x 40Gb = 5 GB/s each;
	// Quartz: 32 x 2x1Gb = 0.25 GB/s each.
	if lassenGateways != 1 || lassenGatewayLinkBW != 25e9 {
		t.Errorf("Lassen gateway: %d x %v", lassenGateways, lassenGatewayLinkBW)
	}
	if rubyGateways != 8 || rubyGatewayLinkBW != 5e9 {
		t.Errorf("Ruby gateway: %d x %v", rubyGateways, rubyGatewayLinkBW)
	}
	if quartzGateways != 32 || quartzGatewayLinkBW != 0.25e9 {
		t.Errorf("Quartz gateway: %d x %v", quartzGateways, quartzGatewayLinkBW)
	}
}

func TestDeviceSpecsValid(t *testing.T) {
	for _, s := range []interface{ Validate() error }{
		ptr(GPFSRaidPerServer()), ptr(LustreOSTPerOSS()), ptr(NVMePerNode()),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("deployment device spec invalid: %v", err)
		}
	}
}

func ptr[T any](v T) *T { return &v }
