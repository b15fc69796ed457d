package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"storagesim/internal/fsapi"
)

// setupReps is how many testbeds each iteration builds to time set-up,
// which takes well under a millisecond; only the last one is run.
const setupReps = 20

// iterOpts selects how one iteration runs.
type iterOpts struct {
	traced    bool // decorate mounts with recorders and profile the engine call
	executors int  // sharded runs only
}

// iteration is the measurement of one simulation call on a fresh testbed.
type iteration struct {
	setupS            []float64 // one per testbed built
	hostS, cpuS       float64
	allocB, peakHeapB uint64
	gcCycles          uint32
	gcPauseNs         uint64
	// leakedGoroutines is how many more goroutines exist after the call
	// than before its set-up: processes left parked when an engine
	// returned, each pinning its simulation.
	leakedGoroutines int
	out              outcome
	digest           string
	err              error

	// Traced iterations only.
	recs                 []*recorder
	epoch                time.Time
	setupSpan, engineSpn [2]int64
	profile              []byte
}

// runIteration builds a testbed, runs the workload's simulation call on it
// and measures the call. A panic anywhere in set-up or the call, or one
// recorded by the fsapi guard, fails the iteration; it never escapes.
func runIteration(w *workload, in inputs, o iterOpts) (it iteration) {
	sink := &panicSink{}
	it.epoch = time.Now()
	recs := map[int]*recorder{}
	wr := wiring{
		executors: o.executors,
		observe:   o.traced,
		wrap: func(c fsapi.Client, rack int) fsapi.Client {
			g := &guardedClient{inner: c, sink: sink}
			if o.traced {
				if recs[rack] == nil {
					recs[rack] = newRecorder(it.epoch)
				}
				g.rec = recs[rack]
			}
			return g
		},
	}

	runtime.GC()
	baseHeap, baseGoroutines := heapLive(), runtime.NumGoroutine()
	var inst instance
	for k := 0; k < setupReps; k++ {
		if d, ok := inst.(interface{ discard() }); ok {
			d.discard()
		}
		s0 := time.Now()
		var err error
		inst, err = safeSetup(w, in, wr)
		s1 := time.Now()
		if err != nil {
			it.err = fmt.Errorf("setup: %w", err)
			return it
		}
		it.setupS = append(it.setupS, s1.Sub(s0).Seconds())
		it.setupSpan = [2]int64{int64(s0.Sub(it.epoch)), int64(s1.Sub(it.epoch))}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	watch := startHeapWatch()
	var prof bytes.Buffer
	if o.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			it.err = fmt.Errorf("cpu profile: %w", err)
			return it
		}
	}
	cpu0 := cpuSeconds()
	h0 := time.Now()
	out, err := safeRun(inst)
	h1 := time.Now()
	cpu1 := cpuSeconds()
	if o.traced {
		pprof.StopCPUProfile()
		it.profile = prof.Bytes()
	}
	peak := watch.stop()
	runtime.ReadMemStats(&ms1)
	// The testbed is still reachable here, so a collection now measures
	// the live heap the run ended with.
	runtime.GC()
	if live := heapLive(); live > peak {
		peak = live
	}
	runtime.KeepAlive(inst)
	// Peak heap is what this call added over the heap it started from, so
	// memory an earlier call left behind does not count again.
	if peak > baseHeap {
		peak -= baseHeap
	} else {
		peak = 0
	}
	it.leakedGoroutines = runtime.NumGoroutine() - baseGoroutines

	it.hostS = h1.Sub(h0).Seconds()
	it.cpuS = cpu1 - cpu0
	it.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	it.peakHeapB = peak
	it.gcCycles = ms1.NumGC - ms0.NumGC
	it.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	it.engineSpn = [2]int64{int64(h0.Sub(it.epoch)), int64(h1.Sub(it.epoch))}
	for k := 0; k < len(recs); k++ {
		if r := recs[k]; r != nil {
			it.recs = append(it.recs, r)
		}
	}
	if err == nil {
		err = sink.err()
	}
	if err == nil {
		err = out.check
	}
	it.out = out
	it.err = err
	if err == nil {
		it.digest = out.digest()
	}
	return it
}

func safeSetup(w *workload, in inputs, wr wiring) (inst instance, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return w.setup(in, wr)
}

func safeRun(inst instance) (out outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return inst.run()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapLive is the live heap the most recent collection marked.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapWatch records the largest live heap any collection marks while it is
// armed. A finalizer on a sentinel object runs once after each collection
// and re-arms itself with a fresh sentinel.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	sentinel := new([64]byte) // large enough to stay out of the tiny allocator
	runtime.SetFinalizer(sentinel, func(*[64]byte) {
		if w.stopped.Load() {
			return
		}
		live := heapLive()
		for {
			old := w.peak.Load()
			if live <= old || w.peak.CompareAndSwap(old, live) {
				break
			}
		}
		w.arm()
	})
}

func (w *heapWatch) stop() uint64 {
	w.stopped.Store(true)
	return w.peak.Load()
}

// median of a copy of xs; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
