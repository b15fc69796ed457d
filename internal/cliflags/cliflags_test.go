package cliflags

import (
	"strings"
	"testing"

	"storagesim/internal/cluster"
)

// The -machine and -fs help lists are written from the deployment table,
// so every pair they name is one the table deploys.
func TestChoicesFollowTheTable(t *testing.T) {
	if got, want := machineChoices(), "Lassen, Ruby, Quartz or Wombat"; got != want {
		t.Errorf("machineChoices() = %q, want %q", got, want)
	}
	want := "vast (Wombat, Lassen, Ruby, Quartz), gpfs (Lassen), lustre (Ruby, Quartz), nvme (Wombat) or unifyfs (Wombat)"
	if got := fsChoices(""); got != want {
		t.Errorf("fsChoices(\"\") = %q, want %q", got, want)
	}
	if got := fsChoices("Lassen"); got != "vast or gpfs" {
		t.Errorf("fsChoices(Lassen) = %q", got)
	}
	for _, d := range cluster.Deployments() {
		if !strings.Contains(fsChoices(d.Machine), d.FS) {
			t.Errorf("%s on %s missing from %q", d.FS, d.Machine, fsChoices(d.Machine))
		}
	}
}
