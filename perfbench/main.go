// Command perfbench measures what a storagesim run costs on the host: the
// wall time, CPU time, set-up time and memory of four simulation calls
// users wait for, with the simulated results checked against pinned
// digests. A traced run attributes that cost to the repo's modules.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload dlio-cosmoflow --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"compress/gzip"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// minIterations is the fewest measured iterations (or traced rounds) a run
// makes, however long they take.
const minIterations = 3

//go:embed reference.json
var referenceJSON []byte

// reference pins the simulated-result digests of the default and held-out
// seeds, and records the conditions the committed numbers were taken on.
type reference struct {
	DefaultSeed uint64                       `json:"default_seed"`
	HeldOutSeed uint64                       `json:"held_out_seed"`
	Digests     map[string]map[string]string `json:"digests"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "dlio-cosmoflow, ior-fsync-mixed, traffic-open or traffic-sharded")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed uint64, seconds int, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	in, err := genInputs(seed)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	pinned := ref.Digests[name][strconv.FormatUint(seed, 10)]
	role := "unpinned: calls are checked against each other"
	switch {
	case seed == ref.DefaultSeed:
		role = "default, digest pinned"
	case seed == ref.HeldOutSeed:
		role = "held out, digest pinned"
	}

	fmt.Fprintf(stdout, "workload %s seed %d (%s) window %ds trace %v\n", name, seed, role, seconds, traced)
	fmt.Fprintf(stdout, "host go=%s GOMAXPROCS=%d nproc=%d %s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	if w.name == "traffic-open" || w.name == "traffic-sharded" {
		fmt.Fprintf(stdout, "tenant-spec %s\n", in.specJSON)
	}

	window := time.Duration(seconds) * time.Second
	var res result
	if traced {
		res, err = tracedRun(stdout, w, in, window, pinned)
	} else {
		res, err = timedRun(stdout, w, in, window, pinned)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errors.New("outputs are not correct")
	}
	return nil
}

// checker decides which iterations of a run are correct: each must
// succeed and produce the same digest as every other, and that digest must
// equal the pinned one when the seed is pinned.
type checker struct {
	out               io.Writer
	pinned, digest    string
	attempted, failed int64
	nominalOps        int64
}

func (c *checker) add(label string, it iteration) bool {
	ops := it.out.ops
	if ops > c.nominalOps {
		c.nominalOps = ops
	}
	if ops == 0 {
		ops = max(c.nominalOps, 1)
	}
	c.attempted += ops
	err := it.err
	if err == nil {
		switch {
		case c.pinned != "" && it.digest != c.pinned:
			err = fmt.Errorf("digest %s differs from pinned %s", it.digest, c.pinned)
		case c.digest == "":
			c.digest = it.digest
		case it.digest != c.digest:
			err = fmt.Errorf("digest %s differs from this run's %s", it.digest, c.digest)
		}
	}
	if err != nil {
		c.failed += ops
		fmt.Fprintf(c.out, "FAILED %s: %v\n", label, err)
		return false
	}
	return true
}

func (c *checker) correct() bool { return c.failed == 0 && c.digest != "" }

// timedRun is the untraced run: a warm-up call, then measured calls for
// the window, each on a fresh testbed. End-to-end metrics are medians.
func timedRun(out io.Writer, w *workload, in inputs, window time.Duration, pinned string) (result, error) {
	chk := &checker{out: out, pinned: pinned}
	opts := iterOpts{executors: shardedExecutors}
	// The warm-up is checked but not measured: it pays one-time costs
	// (heap growth, first-touch page faults) no later call pays.
	chk.add("warm-up", runIteration(w, in, opts))

	var its []iteration
	start := time.Now()
	for len(its) < minIterations || time.Since(start) < window {
		it := runIteration(w, in, opts)
		chk.add(fmt.Sprintf("iteration %d", len(its)+1), it)
		its = append(its, it)
	}
	var host, cpu, setup, heap, alloc []float64
	for _, it := range its {
		host = append(host, it.hostS)
		cpu = append(cpu, it.cpuS)
		setup = append(setup, it.setupS...)
		heap = append(heap, float64(it.peakHeapB)/(1<<20))
		alloc = append(alloc, float64(it.allocB)/(1<<20))
	}
	values := map[string]float64{
		"host_s":       median(host),
		"cpu_s":        median(cpu),
		"setup_s":      median(setup),
		"peak_heap_mb": median(heap),
		"alloc_mb":     median(alloc),
	}
	m := map[string]metric{}
	for _, em := range endToEndMetrics {
		m[em.name] = metric{values[em.name], em.unit}
	}
	reportCommon(out, chk, its)
	fmt.Fprint(out, "host_s per iteration:")
	for _, it := range its {
		fmt.Fprintf(out, " %.4f", it.hostS)
	}
	fmt.Fprintln(out)
	return result{Correct: chk.correct(), Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// reportCommon prints the human-readable part of a run: iteration count,
// error rate, digest and the simulated results.
func reportCommon(out io.Writer, chk *checker, its []iteration) {
	fmt.Fprintf(out, "iterations %d\n", len(its))
	fmt.Fprintf(out, "error_rate %g (%d of %d simulated operations failed)\n",
		ratio(float64(chk.failed), float64(chk.attempted)), chk.failed, chk.attempted)
	fmt.Fprintf(out, "digest %s\n", chk.digest)
	for _, it := range its {
		if it.err == nil {
			for _, s := range it.out.sim {
				fmt.Fprintf(out, "%s %s\n", s.name, strconv.FormatFloat(s.value, 'g', -1, 64))
			}
			return
		}
	}
}

// tracedRun alternates untraced and traced calls on the same inputs for
// the window (plus, on traffic-sharded, an untraced call at one executor)
// and reports the per-layer metrics. Every call's digest must match.
func tracedRun(out io.Writer, w *workload, in inputs, window time.Duration, pinned string) (result, error) {
	chk := &checker{out: out, pinned: pinned}
	sharded := w.name == "traffic-sharded"
	var plain, traced, single []iteration
	var last *iteration // the latest good traced call, whose spans are written out
	shares := map[string]int64{}
	// Per-layer values that vary between calls are medians over the traced
	// (or, for GC and CPU figures, the untraced) calls.
	perIter := map[string][]float64{}
	start := time.Now()
	for len(traced) < minIterations || time.Since(start) < window {
		u := runIteration(w, in, iterOpts{executors: shardedExecutors})
		chk.add("untraced", u)
		plain = append(plain, u)

		t := runIteration(w, in, iterOpts{executors: shardedExecutors, traced: true})
		chk.add("traced", t)
		if t.err == nil {
			samples, err := parseProfile(t.profile)
			if err != nil {
				return result{}, err
			}
			for k, v := range attribute(samples) {
				shares[k] += v
			}
			st := summarize(t.recs)
			for op := opKind(0); op < numOps; op++ {
				p := "fsapi." + opNames[op] + "."
				s := st[op]
				perIter[p+"count"] = append(perIter[p+"count"], float64(s.count))
				perIter[p+"bytes"] = append(perIter[p+"bytes"], float64(s.bytes))
				perIter[p+"sim_p50_us"] = append(perIter[p+"sim_p50_us"], s.simP50us)
				perIter[p+"sim_p99_us"] = append(perIter[p+"sim_p99_us"], s.simP99us)
				perIter[p+"host_self_us"] = append(perIter[p+"host_self_us"], float64(s.hostSelfNs)/1e3)
				perIter[p+"yield_frac"] = append(perIter[p+"yield_frac"], ratio(float64(s.yielded), float64(s.count)))
			}
			for k, v := range t.out.layer {
				perIter[k] = append(perIter[k], v)
			}
			keep := t
			last = &keep
		}
		// Only the last traced call's spans are kept: a DLIO call makes
		// half a million of them.
		t.recs, t.profile = nil, nil
		traced = append(traced, t)

		if sharded {
			s := runIteration(w, in, iterOpts{executors: 1})
			chk.add("one executor", s)
			single = append(single, s)
		}
	}

	hostOf := func(its []iteration) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = it.hostS
		}
		return median(xs)
	}
	for _, u := range plain {
		if u.err != nil {
			continue
		}
		perIter["gc.cycles"] = append(perIter["gc.cycles"], float64(u.gcCycles))
		perIter["gc.pause_ms"] = append(perIter["gc.pause_ms"], float64(u.gcPauseNs)/1e6)
		perIter["group.cpu_per_wall"] = append(perIter["group.cpu_per_wall"], ratio(u.cpuS, u.hostS))
		perIter["gc.leaked_goroutines"] = append(perIter["gc.leaked_goroutines"], float64(u.leakedGoroutines))
	}
	values := map[string]float64{}
	for k, xs := range perIter {
		values[k] = median(xs)
	}
	var total int64
	for _, v := range shares {
		total += v
	}
	for _, l := range layers {
		values["host_share."+l] = ratio(float64(shares[l]), float64(total))
	}
	values["trace_overhead_frac"] = hostOf(traced)/hostOf(plain) - 1
	if sharded {
		values["group.speedup"] = hostOf(single) / hostOf(plain)
	}
	if offered := values["traffic.offered"]; offered > 0 {
		values["traffic.host_us_per_req"] = hostOf(plain) / offered * 1e6
	}

	m := map[string]metric{}
	for _, pm := range perLayerMetrics() {
		m[pm.name] = metric{values[pm.name], pm.unit}
	}

	reportCommon(out, chk, plain)
	fmt.Fprintf(out, "rounds %d, host_s untraced %.4f traced %.4f", len(traced), hostOf(plain), hostOf(traced))
	if sharded {
		fmt.Fprintf(out, " one-executor %.4f", hostOf(single))
	}
	fmt.Fprintln(out)
	top, topShare := "", -1.0
	for _, l := range layers {
		if s := values["host_share."+l]; s > topShare {
			top, topShare = l, s
		}
	}
	fmt.Fprintf(out, "top host_share layer: %s (%.3f of %d ms CPU sampled)\n", top, topShare, total/1e6)
	if last != nil {
		path, err := writeSpans(w.name, last)
		if err != nil {
			return result{}, err
		}
		lo, hi := last.engineSpn[0], last.engineSpn[1]
		self := hi - lo - coveredNs(last.recs, lo, hi)
		fmt.Fprintf(out, "engine span %.4fs, self %.4fs outside fsapi calls; spans written to %s\n",
			float64(hi-lo)/1e9, float64(self)/1e9, path)
	}
	return result{Correct: chk.correct(), Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// writeSpans writes the spans of one traced call, gzip-compressed CSV,
// under the build directory: the setup span, the engine span and one span
// per fsapi call (children of the engine span, keyed by calling process).
func writeSpans(workload string, it *iteration) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".csv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	fmt.Fprintln(zw, "id,parent,level,name,rack,proc,host_start_ns,host_end_ns,self_ns,sim_start_ns,sim_end_ns,bytes,yielded")
	s, e := it.setupSpan, it.engineSpn
	fmt.Fprintf(zw, "1,0,setup,%s,,,%d,%d,%d,,,,\n", workload, s[0], s[1], s[1]-s[0])
	fmt.Fprintf(zw, "2,0,engine,%s,,,%d,%d,%d,,,,\n", workload, e[0], e[1], e[1]-e[0]-coveredNs(it.recs, e[0], e[1]))
	id := 3
	type ref struct {
		rack int
		s    span
	}
	var all []ref
	for rack, r := range it.recs {
		for _, s := range r.spans {
			all = append(all, ref{rack, s})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].s.hostStart < all[j].s.hostStart })
	for _, a := range all {
		s := a.s
		self := ""
		if !s.yielded {
			self = strconv.FormatInt(s.hostEnd-s.hostStart, 10)
		}
		fmt.Fprintf(zw, "%d,2,fsapi,%s,%d,%d,%d,%d,%s,%d,%d,%d,%v\n", id, opNames[s.op], a.rack, s.proc,
			s.hostStart, s.hostEnd, self, int64(s.simStart), int64(s.simEnd), s.bytes, s.yielded)
		id++
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
