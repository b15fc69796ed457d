package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
)

// The fsapi decorators sit between an engine and its mounts. Every run uses
// them as a panic guard: a panic inside a file-system call is recorded and
// the call returns, so the run finishes and is counted as failed instead of
// killing the process. Traced runs also give them a recorder, which keeps
// one span per call.

type opKind uint8

const (
	opOpen opKind = iota
	opRead
	opWrite
	opFsync
	opClose
	opStream
	numOps
)

var opNames = [numOps]string{"open", "read", "write", "fsync", "close", "stream"}

// panicSink keeps the first panic raised inside a decorated call. Sharded
// runs call into it from several executor goroutines.
type panicSink struct {
	mu    sync.Mutex
	first any
}

func (s *panicSink) record(r any) {
	s.mu.Lock()
	if s.first == nil {
		s.first = r
	}
	s.mu.Unlock()
}

func (s *panicSink) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.first == nil {
		return nil
	}
	return fmt.Errorf("panic in fsapi call: %v", s.first)
}

// span is one fsapi call. Host times are nanoseconds since the recorder's
// epoch; sim times are the calling process's virtual clock.
type span struct {
	op                 opKind
	yielded            bool
	proc               uint32
	hostStart, hostEnd int64
	simStart, simEnd   sim.Time
	bytes              int64
}

// recorder collects the spans of one sim environment. The environment runs
// one process at a time, so a recorder needs no lock as long as every Env
// has its own.
type recorder struct {
	epoch time.Time
	// seq is bumped at the entry and exit of every decorated call. A call
	// that sees any other bump between its own entry and exit, or whose
	// process clock moved, yielded to other simulated processes, and its
	// host duration includes their work.
	seq   uint64
	spans []span
	procs map[*sim.Proc]uint32
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, procs: map[*sim.Proc]uint32{}}
}

// procID names the calling process. Pooled processes are reused, so one ID
// can carry several requests in sequence, never two at once.
func (r *recorder) procID(p *sim.Proc) uint32 {
	id, ok := r.procs[p]
	if !ok {
		id = uint32(len(r.procs) + 1)
		r.procs[p] = id
	}
	return id
}

// token is what a call's entry hands its exit.
type token struct {
	seq  uint64
	host int64
	sim  sim.Time
}

type guardedClient struct {
	inner fsapi.Client
	sink  *panicSink
	rec   *recorder // nil on untraced runs
}

type guardedFile struct {
	inner fsapi.File
	c     *guardedClient
}

func (c *guardedClient) begin(p *sim.Proc) token {
	if c.rec == nil {
		return token{}
	}
	r := c.rec
	t := token{seq: r.seq, sim: p.Now()}
	r.seq++
	t.host = int64(time.Since(r.epoch))
	return t
}

// end closes a call. It is always deferred, so it also recovers a panic
// raised inside the call.
func (c *guardedClient) end(p *sim.Proc, t token, op opKind, bytes int64) {
	if v := recover(); v != nil {
		c.sink.record(v)
	}
	r := c.rec
	if r == nil {
		return
	}
	host := int64(time.Since(r.epoch))
	r.spans = append(r.spans, span{
		op:        op,
		yielded:   r.seq != t.seq+1 || p.Now() != t.sim,
		proc:      r.procID(p),
		hostStart: t.host,
		hostEnd:   host,
		simStart:  t.sim,
		simEnd:    p.Now(),
		bytes:     bytes,
	})
	r.seq++
}

func (c *guardedClient) FSName() string   { return c.inner.FSName() }
func (c *guardedClient) NodeName() string { return c.inner.NodeName() }

// Open returns a guarded handle even when the inner Open panics, so the
// caller's next call on it is guarded too.
func (c *guardedClient) Open(p *sim.Proc, path string, truncate bool) (file fsapi.File) {
	t := c.begin(p)
	defer c.end(p, t, opOpen, 0)
	f := &guardedFile{c: c}
	file = f
	f.inner = c.inner.Open(p, path, truncate)
	return f
}

func (c *guardedClient) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	t := c.begin(p)
	defer c.end(p, t, opStream, total)
	c.inner.StreamWrite(p, path, a, ioSize, total)
}

func (c *guardedClient) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	t := c.begin(p)
	defer c.end(p, t, opStream, total)
	c.inner.StreamRead(p, path, a, ioSize, total)
}

// Remove and DropCaches are guarded but not traced: no per-layer metric
// names them.
func (c *guardedClient) Remove(p *sim.Proc, path string) {
	defer c.recoverOnly()
	c.inner.Remove(p, path)
}

func (c *guardedClient) DropCaches() {
	defer c.recoverOnly()
	c.inner.DropCaches()
}

func (c *guardedClient) recoverOnly() {
	if v := recover(); v != nil {
		c.sink.record(v)
	}
}

// SetFlowTag forwards tenant tagging, which the traffic engines apply
// through a type assertion on the mount.
func (c *guardedClient) SetFlowTag(tag string) {
	if tg, ok := c.inner.(fsapi.FlowTagger); ok {
		tg.SetFlowTag(tag)
	}
}

func (f *guardedFile) Path() string { return f.inner.Path() }
func (f *guardedFile) Size() int64  { return f.inner.Size() }

func (f *guardedFile) WriteAt(p *sim.Proc, off, n int64) {
	t := f.c.begin(p)
	defer f.c.end(p, t, opWrite, n)
	f.inner.WriteAt(p, off, n)
}

func (f *guardedFile) ReadAt(p *sim.Proc, off, n int64) {
	t := f.c.begin(p)
	defer f.c.end(p, t, opRead, n)
	f.inner.ReadAt(p, off, n)
}

func (f *guardedFile) Fsync(p *sim.Proc) {
	t := f.c.begin(p)
	defer f.c.end(p, t, opFsync, 0)
	f.inner.Fsync(p)
}

func (f *guardedFile) Close(p *sim.Proc) {
	t := f.c.begin(p)
	defer f.c.end(p, t, opClose, 0)
	f.inner.Close(p)
}

// opStats is the per-operation summary of a traced run.
type opStats struct {
	count, bytes, yielded int64
	hostSelfNs            int64
	simP50us, simP99us    float64
}

// summarize folds the spans of every recorder into per-operation stats.
// Host self time sums the calls that did not yield: a yielding call's host
// interval also holds other processes' work.
func summarize(recs []*recorder) [numOps]opStats {
	var out [numOps]opStats
	var simDur [numOps][]int64
	for _, r := range recs {
		for _, s := range r.spans {
			o := &out[s.op]
			o.count++
			o.bytes += s.bytes
			if s.yielded {
				o.yielded++
			} else {
				o.hostSelfNs += s.hostEnd - s.hostStart
			}
			simDur[s.op] = append(simDur[s.op], int64(s.simEnd.Sub(s.simStart)))
		}
	}
	for op := range out {
		d := simDur[op]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		out[op].simP50us = percentile(d, 50) / 1e3
		out[op].simP99us = percentile(d, 99) / 1e3
	}
	return out
}

// percentile is the nearest-rank percentile of sorted values, 0 when empty.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(sorted[k])
}

// coveredNs is the length of the union of the spans' host intervals that
// falls inside [lo, hi].
func coveredNs(recs []*recorder, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, r := range recs {
		for _, s := range r.spans {
			a, b := s.hostStart, s.hostEnd
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		total += v.b - end
		end = v.b
	}
	return total
}
