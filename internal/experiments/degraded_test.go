package experiments

import (
	"strings"
	"testing"
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/ior"
)

func degradedIORConfig(segments int) ior.Config {
	return ior.Config{
		Workload:     ior.Scientific,
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     segments,
		ProcsPerNode: 8,
		OpLevel:      true,
		Seed:         0x5eed,
		Dir:          "/degraded",
	}
}

// TestVASTDipAndReturn is the acceptance case for the fault engine: an IOR
// run on the VAST deployment with a CNode failing mid-run and recovering
// later must (a) complete, (b) run slower than a clean run — the dip —
// and (c) run faster than the same failure without recovery — the return.
func TestVASTDipAndReturn(t *testing.T) {
	cfg := degradedIORConfig(64)
	clean, _, err := RunIORWithFaults("Wombat", VAST, 2, cfg, faults.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	// Place the failure 20% into the clean run and the recovery at 60%, so
	// both land mid-stream whatever the absolute run length is.
	failAt := time.Duration(float64(clean.WriteTime) * 0.2)
	recoverAt := time.Duration(float64(clean.WriteTime) * 0.6)

	dip, applied, err := RunIORWithFaults("Wombat", VAST, 2, cfg, faults.Schedule{Events: []faults.Event{
		{At: failAt, Kind: faults.ServerFail, Index: 0},
		{At: recoverAt, Kind: faults.ServerRecover, Index: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 {
		t.Fatalf("delivered %d of 2 fault events (run ended before recovery?)", len(applied))
	}
	failOnly, _, err := RunIORWithFaults("Wombat", VAST, 2, cfg, faults.Schedule{Events: []faults.Event{
		{At: failAt, Kind: faults.ServerFail, Index: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}

	if dip.WriteTime <= clean.WriteTime {
		t.Errorf("faulted run (%v) not slower than clean run (%v): no throughput dip", dip.WriteTime, clean.WriteTime)
	}
	if failOnly.WriteTime <= dip.WriteTime {
		t.Errorf("unrecovered run (%v) not slower than recovered run (%v): recovery had no effect", failOnly.WriteTime, dip.WriteTime)
	}
	if clean.WriteBW <= dip.WriteBW || dip.WriteBW <= failOnly.WriteBW {
		t.Errorf("bandwidth ordering clean %v > dip %v > fail-only %v violated",
			clean.WriteBW, dip.WriteBW, failOnly.WriteBW)
	}
}

// TestDegradedRunsAreReproducible is the byte-determinism gate for the
// fault engine: the same seed and schedule must reproduce the degraded
// sweep's rendered tables byte for byte.
func TestDegradedRunsAreReproducible(t *testing.T) {
	render := func() string {
		p, err := DegradedSweep(Options{Quick: true, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return p.Render()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("two identical degraded sweeps rendered differently.\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "vast/Wombat") {
		t.Fatalf("sweep table missing expected series:\n%s", first)
	}
}

// TestNodeLocalPeerReadRejected: node-local NVMe cannot serve a
// per-operation read of a file another node wrote, so the IOR entry points
// reject reordered reads across nodes with an error instead of letting
// ior.Run panic; one node, or no reordering, still runs.
func TestNodeLocalPeerReadRejected(t *testing.T) {
	cfg := degradedIORConfig(4)
	cfg.Workload, cfg.ReorderTasks = ior.ML, true
	if _, err := RunIOROnce("Wombat", NVMe, 2, cfg); err == nil || !strings.Contains(err.Error(), "node-local") {
		t.Errorf("RunIOROnce: %v, want the node-local rejection", err)
	}
	if _, _, err := RunIORWithFaults("Wombat", NVMe, 2, cfg, faults.Schedule{}); err == nil || !strings.Contains(err.Error(), "node-local") {
		t.Errorf("RunIORWithFaults: %v, want the node-local rejection", err)
	}
	if _, err := RunIOROnce("Wombat", NVMe, 1, cfg); err != nil {
		t.Errorf("one node: %v", err)
	}
	cfg.ReorderTasks = false
	if _, err := RunIOROnce("Wombat", NVMe, 2, cfg); err != nil {
		t.Errorf("no reordering: %v", err)
	}
}
