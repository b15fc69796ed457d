package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"storagesim/internal/cluster"
	"storagesim/internal/fsapi"
	"storagesim/internal/ior"
	"storagesim/internal/sim"
)

func fr(fn, file string) frame { return frame{fn: fn, file: file} }

// TestAttribution charges canned stacks (innermost frame first) to layers.
func TestAttribution(t *testing.T) {
	samples := []stackSample{
		// Map iteration inside the cache's flush scan counts toward cache.
		{frames: []frame{
			fr("runtime.mapiternext", "/go/src/runtime/map.go"),
			fr("storagesim/internal/cache.(*Cache).FlushFileRanges", "/src/internal/cache/cache.go"),
			fr("storagesim/internal/vast.(*file).Close", "/src/internal/vast/vast.go"),
			fr("storagesim/internal/dlio.readSample", "/src/internal/dlio/dlio.go"),
		}, value: 70},
		// Goroutine park in the kernel's hand-off is sim.kernel.
		{frames: []frame{
			fr("runtime.gopark", "/go/src/runtime/proc.go"),
			fr("runtime.chanrecv1", "/go/src/runtime/chan.go"),
			fr("storagesim/internal/sim.(*Env).dispatch", "/src/internal/sim/env.go"),
		}, value: 10},
		// The fabric solver and the group barrier split package sim by file.
		{frames: []frame{
			fr("sort.Slice", "/go/src/sort/slice.go"),
			fr("storagesim/internal/sim.(*Fabric).solve", "/src/internal/sim/solver.go"),
		}, value: 5},
		{frames: []frame{
			fr("storagesim/internal/sim.(*Group).Run", "/src/internal/sim/domain.go"),
		}, value: 4},
		// An inlined closure of a sub-package belongs to its top package.
		{frames: []frame{
			fr("storagesim/internal/faults/invariants.Check.func1", "/src/internal/faults/invariants/inv.go"),
		}, value: 1},
		// The decorators are the benchmark's own cost.
		{frames: []frame{
			fr("time.Since", "/go/src/time/time.go"),
			fr("main.(*guardedClient).end", "/src/perfbench/fsapitrace.go"),
			fr("storagesim/internal/dlio.readSample", "/src/internal/dlio/dlio.go"),
		}, value: 3},
		// No repo frame at all: a GC worker.
		{frames: []frame{
			fr("runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"),
		}, value: 7},
	}
	got := attribute(samples)
	want := map[string]int64{
		"cache": 70, "sim.kernel": 10, "sim.fabric": 5, "sim.group": 4,
		"other": 1, "bench": 3, "runtime": 7,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
}

// Minimal protobuf encoding for a canned pprof profile.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return pbBytes(b, num, data)
}

// TestParseProfile decodes a hand-encoded profile: two sample types, a
// location with an inlined frame, and one sample listing its locations
// unpacked.
func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"storagesim/internal/cache.(*Cache).Lookup", "/src/internal/cache/cache.go",
		"runtime.mapaccess2", "/go/src/runtime/map.go",
		"storagesim/internal/sim.(*Env).dispatch", "/src/internal/sim/env.go"}
	var p []byte
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 1), 2, 2)) // samples/count
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 3), 2, 4)) // cpu/nanoseconds
	// Location 1: mapaccess2 inlined into Cache.Lookup.
	loc1 := pbVarint(nil, 1, 1)
	loc1 = pbBytes(loc1, 4, pbVarint(nil, 1, 2))
	loc1 = pbBytes(loc1, 4, pbVarint(nil, 1, 1))
	p = pbBytes(p, 4, loc1)
	p = pbBytes(p, 4, pbBytes(pbVarint(nil, 1, 2), 4, pbVarint(nil, 1, 3)))
	p = pbBytes(p, 5, pbVarint(pbVarint(pbVarint(nil, 1, 1), 2, 5), 4, 6))
	p = pbBytes(p, 5, pbVarint(pbVarint(pbVarint(nil, 1, 2), 2, 7), 4, 8))
	p = pbBytes(p, 5, pbVarint(pbVarint(pbVarint(nil, 1, 3), 2, 9), 4, 10))
	p = pbBytes(p, 2, pbPacked(pbPacked(nil, 1, 1, 2), 2, 3, 30_000_000))
	p = pbBytes(p, 2, pbPacked(pbVarint(nil, 1, 2), 2, 1, 10_000_000))
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{frames: []frame{
			fr("runtime.mapaccess2", "/go/src/runtime/map.go"),
			fr("storagesim/internal/cache.(*Cache).Lookup", "/src/internal/cache/cache.go"),
			fr("storagesim/internal/sim.(*Env).dispatch", "/src/internal/sim/env.go"),
		}, value: 30_000_000},
		{frames: []frame{
			fr("storagesim/internal/sim.(*Env).dispatch", "/src/internal/sim/env.go"),
		}, value: 10_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseProfile = %+v, want %+v", got, want)
	}
	if sh := attribute(got); sh["cache"] != 30_000_000 || sh["sim.kernel"] != 10_000_000 {
		t.Fatalf("attribute = %v", sh)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and metric
// lists in step with what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d] = %+v, program has %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics())
}

// TestGuardCountsPanicAsFailure runs the known crash (IOR ML with fsync on
// Wombat node-local NVMe, reordered tasks: "read beyond EOF") through the
// benchmark's iteration and checks that it fails the iteration instead of
// killing the process.
func TestGuardCountsPanicAsFailure(t *testing.T) {
	w := &workload{name: "nvme-reorder", setup: func(_ inputs, wr wiring) (instance, error) {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		cl, err := cluster.New(env, fab, cluster.WombatSpec(), 2)
		if err != nil {
			return nil, err
		}
		sys := cluster.NVMeOnWombat(cl)
		r := &iorRun{env: env, fab: fab, cfg: ior.Config{
			Workload: ior.ML, BlockSize: 1 << 20, TransferSize: 1 << 20, Segments: 4,
			ProcsPerNode: 8, Fsync: true, ReorderTasks: true, Seed: 42, Dir: "/ior",
		}}
		for i := 0; i < 2; i++ {
			r.mounts = append(r.mounts, wr.wrap(sys.Mount(cl.Node(i).Name, cl.Node(i).NIC), 0))
		}
		return r, nil
	}}
	it := runIteration(w, inputs{}, iterOpts{})
	if it.err == nil || !strings.Contains(it.err.Error(), "beyond EOF") {
		t.Fatalf("iteration error = %v, want the read-beyond-EOF panic", it.err)
	}
	chk := &checker{out: &bytes.Buffer{}}
	if chk.add("crash", it) || chk.failed == 0 || chk.correct() {
		t.Fatalf("checker accepted a crashed iteration: %+v", chk)
	}
}

// TestCoveredNs merges overlapping spans and clips them to the window.
func TestCoveredNs(t *testing.T) {
	r := &recorder{spans: []span{
		{hostStart: 0, hostEnd: 10},
		{hostStart: 5, hostEnd: 20},
		{hostStart: 30, hostEnd: 40},
		{hostStart: 35, hostEnd: 38},
		{hostStart: 95, hostEnd: 120},
	}}
	if got := coveredNs([]*recorder{r}, 2, 100); got != 18+10+5 {
		t.Fatalf("coveredNs = %d, want 33", got)
	}
}

var _ fsapi.Client = (*guardedClient)(nil)
