package storagesim_test

// End-to-end CLI smoke tests: build every command and run it with quick
// arguments, asserting on the output. These catch flag-wiring and
// rendering regressions that unit tests of the libraries cannot.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmds compiles all commands once into a temp dir.
func buildCmds(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"paperfigs", "iorbench", "dliobench", "tracestat", "mdbench", "trafficbench", "tracereplay", "whatif"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, b)
	}
	return string(b)
}

// runFail runs a command that must reject its input: a non-zero exit with
// the expected message, never a panic.
func runFail(t *testing.T, bin string, want string, args ...string) {
	t.Helper()
	b, err := exec.Command(bin, args...).CombinedOutput()
	out := string(b)
	if err == nil {
		t.Fatalf("%s %v succeeded, want a rejection:\n%s", bin, args, out)
	}
	if strings.Contains(out, "panic") || strings.Contains(out, "goroutine ") {
		t.Fatalf("%s %v panicked:\n%s", bin, args, out)
	}
	if !strings.Contains(out, want) {
		t.Fatalf("%s %v: output lacks %q:\n%s", bin, args, want, out)
	}
}

func TestCommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildCmds(t)

	out := run(t, filepath.Join(dir, "paperfigs"), "-fig", "table1")
	if !strings.Contains(out, "Lassen") || !strings.Contains(out, "Wombat") {
		t.Fatalf("paperfigs table1 output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "paperfigs"), "-fig", "1")
	if !strings.Contains(out, "CNodes") || !strings.Contains(out, "NSD servers") {
		t.Fatalf("paperfigs fig1 output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "iorbench"),
		"-machine", "Wombat", "-fs", "vast", "-nodes", "1", "-ppn", "8",
		"-workload", "analytics", "-segments", "64", "-bottlenecks", "2")
	if !strings.Contains(out, "read:") || !strings.Contains(out, "bottleneck 1:") {
		t.Fatalf("iorbench output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "iorbench"),
		"-machine", "Lassen", "-fs", "gpfs", "-nodes", "1", "-app", "cm1")
	if !strings.Contains(out, "CM1") {
		t.Fatalf("iorbench -app output:\n%s", out)
	}

	traceFile := filepath.Join(dir, "run.json")
	out = run(t, filepath.Join(dir, "dliobench"),
		"-model", "custom", "-samples", "64", "-sample-size", "1m",
		"-fs", "gpfs", "-nodes", "1", "-trace", traceFile)
	if !strings.Contains(out, "app throughput") {
		t.Fatalf("dliobench output:\n%s", out)
	}
	if _, err := os.Stat(traceFile); err != nil {
		t.Fatalf("trace file missing: %v", err)
	}

	out = run(t, filepath.Join(dir, "tracestat"), traceFile)
	if !strings.Contains(out, "non-overlapping") {
		t.Fatalf("tracestat output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "tracestat"),
		"-project", "vast", "-machine", "Lassen", "-nodes", "1", traceFile)
	if !strings.Contains(out, "projected onto vast") || !strings.Contains(out, "speedup") {
		t.Fatalf("tracestat -project output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "mdbench"),
		"-machine", "Ruby", "-fs", "lustre", "-nodes", "1", "-ppn", "4", "-files", "32")
	if !strings.Contains(out, "creates:") || !strings.Contains(out, "removes:") {
		t.Fatalf("mdbench output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "trafficbench"),
		"-machine", "Wombat", "-fs", "vast", "-nodes", "2", "-duration", "500ms")
	if !strings.Contains(out, "ckpt") || !strings.Contains(out, "goodput") {
		t.Fatalf("trafficbench output:\n%s", out)
	}

	// Bad input and flag combinations the engine cannot honour are errors,
	// never panics or silently dropped flags.
	runFail(t, filepath.Join(dir, "trafficbench"), "remote fraction", "-racks", "2", "-remote", "1.5")
	runFail(t, filepath.Join(dir, "trafficbench"), "positive duration", "-duration", "0")
	runFail(t, filepath.Join(dir, "tracereplay"), "-record is not supported", "-record", "-racks", "2")

	// A fault schedule that takes every server of a deployment down is
	// refused at the last healthy one: an error and exit 1, never a panic.
	// trafficbench gives each tenant its own node-local allocation, which
	// grows the NVMe failure domain past the two benchmark nodes, so its
	// case fails every CNode of a 2-node VAST deployment instead.
	allDown := func(name string, servers int) string {
		var events []string
		for i := 0; i < servers; i++ {
			events = append(events, fmt.Sprintf(`{"at":"%dms","kind":"server-fail","index":%d}`, i+1, i))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(`{"events":[`+strings.Join(events, ",")+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	runFail(t, filepath.Join(dir, "iorbench"), "cannot fail the last healthy node",
		"-machine", "Wombat", "-fs", "nvme", "-nodes", "2", "-faults", allDown("nvme-down.json", 2))
	runFail(t, filepath.Join(dir, "trafficbench"), "cannot fail the last healthy CNode",
		"-machine", "Wombat", "-fs", "vast", "-nodes", "2", "-duration", "200ms",
		"-faults", allDown("vast-down.json", 8))
	runFail(t, filepath.Join(dir, "tracereplay"), "-audit is not supported",
		"-trace", "internal/experiments/testdata/fidelity_trace.jsonl", "-racks", "2", "-audit")
	runFail(t, filepath.Join(dir, "tracereplay"), "under one byte",
		"-trace", "internal/experiments/testdata/fidelity_trace.jsonl", "-io", "0.5")

	// tracereplay round trip: record a short synthetic run, re-ingest it,
	// replay it on the same deployment, and demand a passing audit.
	recFile := filepath.Join(dir, "rec.jsonl")
	run(t, filepath.Join(dir, "tracereplay"),
		"-record", "-machine", "Wombat", "-fs", "vast", "-nodes", "2",
		"-duration", "200ms", "-o", recFile)
	out = run(t, filepath.Join(dir, "tracereplay"),
		"-trace", recFile, "-machine", "Wombat", "-fs", "vast", "-nodes", "2", "-audit")
	if !strings.Contains(out, "metrics in band: PASS") || !strings.Contains(out, "rel err") {
		t.Fatalf("tracereplay audit output:\n%s", out)
	}
	out = run(t, filepath.Join(dir, "tracereplay"), "-trace", recFile, "-print-spec")
	if !strings.Contains(out, "tenants") {
		t.Fatalf("tracereplay -print-spec output:\n%s", out)
	}

	// whatif: search the pinned fixture space (built-in default) and a
	// space file, with frontier table and JSON export.
	resFile := filepath.Join(dir, "whatif.json")
	out = run(t, filepath.Join(dir, "whatif"),
		"-space", "internal/experiments/testdata/whatif_space.json",
		"-budget", "60", "-print-frontier", "-out", resFile)
	if !strings.Contains(out, "whatif-frontier") || !strings.Contains(out, "verified=60") {
		t.Fatalf("whatif output:\n%s", out)
	}
	if b, err := os.ReadFile(resFile); err != nil || !strings.Contains(string(b), "Frontier") {
		t.Fatalf("whatif -out file: %v\n%s", err, b)
	}

	csvDir := filepath.Join(dir, "csv")
	run(t, filepath.Join(dir, "paperfigs"), "-fig", "takeaways", "-quick", "-csv", csvDir)
	if _, err := os.Stat(filepath.Join(csvDir, "takeaway-rdma-vs-tcp.csv")); err != nil {
		t.Fatalf("csv export missing: %v", err)
	}
}
