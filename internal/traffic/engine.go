package traffic

import (
	"fmt"

	"storagesim/internal/fsapi"
	"storagesim/internal/resilience"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/trace"
)

// The request lifecycle shared by Run, RunSharded and ReplayTrace. An
// engine is one Env's admission and accounting domain (Run and ReplayTrace
// build one, RunSharded one per rack); a shard drives one tenant×node slice
// of the arrivals on it. Every arrival runs the same admission chain, every
// admitted request runs on a pooled record through one of two bodies —
// the direct serve, or resilience.ExecuteCall for policy tenants — and
// every outcome is booked by finish, including a forwarded remote request
// whose reply has landed back home. Only the arrival source and the way
// the clock is advanced differ by entry point.

// engine is the admission and accounting state of one Env: its tenants,
// the brownout gauge over all of them, the latest completion (the replay
// makespan) and the observers. Everything in it is touched only from its
// own Env.
type engine struct {
	env      *sim.Env
	brown    resilience.Brownout
	inflight int
	last     sim.Time
	tenants  []*tenantState
	obs      func(trace.Event)
	outObs   func(OutcomeEvent)
	// ioDefault is the replay op size for recorded events that carry none.
	ioDefault int64
}

// tenantState is one tenant's admission and accounting state on an engine.
type tenantState struct {
	spec     *Tenant
	capacity int
	breaker  *resilience.Breaker
	sketch   *stats.Sketch
	keep     bool
	lats     []float64

	offered, shed, complete                                uint64
	shedAdmission, shedBrownout, shedBreaker, deadlineMiss uint64
	retries, hedges, hedgeWins                             uint64
	inflight                                               int
	payload                                                float64

	// remoteMount serves requests other racks forward to this one (sharded
	// runs with remote traffic only).
	remoteMount fsapi.Client
}

// addTenant registers a tenant on the engine with the given in-flight cap.
func (eng *engine) addTenant(t *Tenant, capacity int, alpha float64, keep bool) *tenantState {
	st := &tenantState{
		spec:     t,
		capacity: capacity,
		breaker:  resilience.NewBreaker(t.Resilience.Breaker),
		sketch:   stats.NewSketch(alpha),
		keep:     keep,
	}
	eng.tenants = append(eng.tenants, st)
	return st
}

// reqFiles is the rotating file-set size per tenant×shard: requests cycle
// through this many paths, so the namespace stays bounded no matter how
// many requests a run generates.
const reqFiles = 16

// arrivalChunk is the number of arrival timestamps a stochastic source
// pre-draws per refill of its ring. The draws come from the shard-private
// RNG in exactly the order a one-draw-per-wakeup generator makes them, so
// the timestamp sequence is bit-identical; chunking only amortizes the
// dispatch.
const arrivalChunk = 64

// arrivals is a shard's arrival source: either a stochastic generator read
// through a chunked pre-drawn ring (consulted in the same next(prev)
// sequence a per-request generator loop would use, including the final
// beyond-window draw that ends the stream), or a tenant×node slice of a
// recorded trace.
type arrivals struct {
	gen    *arrivalGen   // stochastic source; nil for a recorded one
	events []trace.Event // recorded source
	end    sim.Time
	buf    [arrivalChunk]sim.Time
	idx, n int
	last   sim.Time
	done   bool
}

func (a *arrivals) fill() {
	a.idx, a.n = 0, 0
	for a.n < len(a.buf) {
		at := a.gen.next(a.last)
		a.last = at
		if at > a.end {
			a.done = true
			return
		}
		a.buf[a.n] = at
		a.n++
	}
}

// peek returns the next arrival time without consuming it; ok is false once
// the source is exhausted.
func (a *arrivals) peek() (at sim.Time, ok bool) {
	if a.gen == nil {
		if a.idx < len(a.events) {
			return a.events[a.idx].At, true
		}
		return 0, false
	}
	if a.idx >= a.n {
		if a.done {
			return 0, false
		}
		a.fill()
		if a.n == 0 {
			return 0, false
		}
	}
	return a.buf[a.idx], true
}

// pop consumes the arrival peek returned: the recorded event, or nil for a
// stochastic source.
func (a *arrivals) pop() *trace.Event {
	a.idx++
	if a.gen == nil {
		return &a.events[a.idx-1]
	}
	return nil
}

// shard drives one tenant×node slice of an engine's arrivals: a
// self-re-arming calendar tick (one pooled timer event per arrival instant,
// no generator process) plus a free list of request records, so the steady
// request path allocates nothing.
type shard struct {
	eng    *engine
	st     *tenantState
	cl     fsapi.Client
	node   int
	policy bool // requests run under resilience.ExecuteCall
	src    arrivals
	// tmpl is a stochastic shard's request as an observer sees it, minus
	// issue time, latency, node and path.
	tmpl    trace.Event
	fwd     *forwarder // nil unless requests may be placed on other racks
	reqName string
	paths   [reqFiles]string
	reqIdx  uint64
	free    []*request
	fn      func() // tick bound once; re-armed for every future arrival
}

// launch arms a shard of tenant st on node node. root is the path
// namespace ("/traffic" or "/replay"); src is the arrival source.
func (eng *engine) launch(st *tenantState, cl fsapi.Client, node int, src arrivals, reqName, root string, fwd *forwarder) {
	t := st.spec
	sh := &shard{
		eng:     eng,
		st:      st,
		cl:      cl,
		node:    node,
		policy:  t.Resilience.Enabled() || eng.brown.Enabled(),
		src:     src,
		tmpl:    trace.Event{Tenant: t.Name, Op: workloadOp(t.Workload), Bytes: t.RequestBytes, IO: ioBytesOf(t)},
		fwd:     fwd,
		reqName: reqName,
	}
	for i := range sh.paths {
		sh.paths[i] = fmt.Sprintf("%s/%s/n%d/f%d", root, t.Name, node, i)
	}
	sh.fn = sh.tick
	if at, ok := sh.src.peek(); ok {
		now := eng.env.Now()
		if at < now {
			at = now
		}
		eng.env.AfterFunc(at.Sub(now), sh.fn)
	}
}

// tick admits every pending arrival with at <= now (recorded streams carry
// ties; stochastic streams are strictly increasing), then re-arms itself
// for the next future arrival. It runs on the scheduler's stack and must
// not block.
func (sh *shard) tick() {
	env := sh.eng.env
	now := env.Now()
	for {
		at, ok := sh.src.peek()
		if !ok {
			return
		}
		if at > now {
			env.AfterFunc(at.Sub(now), sh.fn)
			return
		}
		sh.arrive(now, sh.src.pop())
	}
}

// arrive runs the admission chain for one arrival — breaker, then brownout
// tiers, then the per-tenant cap, cheapest refusal first; a breaker grant
// consumed by a later stage is handed back with Release so probe slots
// never leak — and starts the admitted request. A nil breaker and a
// disabled brownout pass everything, so tenants without a policy see the
// plain queue-depth backpressure: beyond the cap a request is shed, never
// queued. rev is the recorded request, nil for a stochastic arrival.
func (sh *shard) arrive(now sim.Time, rev *trace.Event) {
	st, eng := sh.st, sh.eng
	st.offered++
	ok, probe := st.breaker.Allow(now)
	if !ok {
		sh.refuse(now, &st.shedBreaker, OutcomeShedBreaker)
		return
	}
	if eng.brown.Enabled() && eng.inflight >= eng.brown.Threshold(st.spec.Priority) {
		st.breaker.Release(probe)
		sh.refuse(now, &st.shedBrownout, OutcomeShedBrownout)
		return
	}
	if st.capacity > 0 && st.inflight >= st.capacity {
		st.breaker.Release(probe)
		sh.refuse(now, &st.shedAdmission, OutcomeShedAdmission)
		return
	}
	idx := sh.reqIdx % reqFiles
	sh.reqIdx++
	rec := sh.getRec()
	rec.start = now
	rec.probe = probe
	rec.rev = rev
	rec.path = sh.paths[idx]
	rec.io = sh.tmpl.IO
	if rev != nil {
		if rev.File != "" {
			rec.path = rev.File
		}
		// The op size is the recorded one when present, the replay
		// default otherwise, clamped to the payload.
		rec.io = eng.ioDefault
		if rev.IO > 0 {
			rec.io = rev.IO
		}
		if rev.Bytes > 0 && rev.Bytes < rec.io {
			rec.io = rev.Bytes
		}
	}
	// Placement draws are consumed once per admitted request, so
	// backpressure never shifts the placement stream.
	target := -1
	if sh.fwd != nil {
		target = sh.fwd.target()
	}
	st.inflight++
	eng.inflight++
	if target >= 0 {
		sh.forward(rec, idx, target)
		return
	}
	// The backoff jitter stream is per request: distinct shards (and
	// successive requests of one shard) must desynchronize, so the flow id
	// mixes the shard index with the shard-local sequence number.
	rec.call.FlowID = (uint64(sh.node)+1)*0x9e3779b97f4a7c15 + sh.reqIdx
	eng.env.GoPooled(sh.reqName, rec.runFn)
}

// refuse books a shed arrival under its cause.
func (sh *shard) refuse(now sim.Time, cause *uint64, kind OutcomeKind) {
	st := sh.st
	st.shed++
	*cause++
	if sh.eng.outObs != nil {
		sh.eng.outObs(OutcomeEvent{At: now, Tenant: st.spec.Name, Kind: kind, Bytes: st.spec.RequestBytes})
	}
}

// request is one pooled request lifecycle: what to serve, its admission
// state, the resilience call record (completion event, abort tokens,
// attempt closures) and the body closure, recycled through the shard's
// free list. The generation counter makes stale references detectable in
// the pool-hardening tests; freed guards double release.
type request struct {
	sh    *shard
	gen   uint64
	freed bool
	probe bool
	rev   *trace.Event // the recorded request; nil for a stochastic one
	path  string
	io    int64 // per-op transfer size
	start sim.Time
	runFn func(rp *sim.Proc)
	call  resilience.Call
}

// desc is the request's recorded event, or its shard's template: the
// source of its op and payload.
func (rec *request) desc() *trace.Event {
	if rec.rev != nil {
		return rec.rev
	}
	return &rec.sh.tmpl
}

// getRec draws a record from the shard pool, creating (and binding its
// closures, once) on first use.
func (sh *shard) getRec() *request {
	if n := len(sh.free); n > 0 {
		rec := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		rec.freed = false
		return rec
	}
	rec := &request{sh: sh}
	if sh.policy {
		rec.runFn = rec.runPolicy
		rec.call.Attempt = func(ap *sim.Proc) { serve(ap, sh.cl, rec) }
		rec.call.OnIdle = func() { sh.freeRec(rec) }
	} else {
		rec.runFn = rec.runDirect
	}
	return rec
}

// freeRec returns a record to the pool. Double release is always a
// lifecycle bug, so it panics.
func (sh *shard) freeRec(rec *request) {
	if rec.freed {
		panic("traffic: double release of pooled request record")
	}
	rec.freed = true
	rec.gen++
	sh.free = append(sh.free, rec)
}

// release recycles the record once nothing references it. A cancelled
// hedge/deadline loser can outlive its coordinator (it unwinds at its next
// cancellation point), so a record with live attempts defers to the call's
// OnIdle hook instead of recycling immediately.
func (rec *request) release() {
	if !rec.call.Idle() {
		rec.call.DeferRelease()
		return
	}
	rec.sh.freeRec(rec)
}

// runDirect is the request body of a tenant without a policy.
func (rec *request) runDirect(rp *sim.Proc) {
	serve(rp, rec.sh.cl, rec)
	rec.sh.finish(rec, rp.Now(), resilience.Outcome{OK: true})
}

// runPolicy is the request coordinator of a policy tenant: it runs the
// pooled call under the tenant policy and settles the breaker. It stays a
// separate body because ExecuteCall always launches an attempt process,
// which consumes calendar sequence numbers the direct serve does not.
func (rec *request) runPolicy(rp *sim.Proc) {
	sh := rec.sh
	st := sh.st
	pl := st.spec.Resilience
	out := resilience.ExecuteCall(rp, pl, &rec.call, pl.Hedge.Delay(st.sketch), st.breaker)
	st.retries += uint64(out.Retries)
	st.hedges += uint64(out.Hedges)
	st.hedgeWins += uint64(out.HedgeWins)
	if out.OK {
		st.breaker.Success(rec.probe)
	} else {
		st.breaker.Failure(rp.Now(), rec.probe)
	}
	sh.finish(rec, rp.Now(), out)
}

// finish settles an admitted request at now: it leaves the in-flight
// gauges, books the outcome — latency sketch, payload, both observers,
// makespan — and recycles the record.
func (sh *shard) finish(rec *request, now sim.Time, out resilience.Outcome) {
	st, eng := sh.st, sh.eng
	st.inflight--
	eng.inflight--
	if now > eng.last {
		eng.last = now
	}
	d := rec.desc()
	kind := OutcomeDeadlineMiss
	if out.OK {
		kind = OutcomeCompleted
		lat := now.Sub(rec.start)
		st.complete++
		st.payload += float64(d.Bytes)
		st.sketch.Add(lat.Seconds())
		if st.keep {
			st.lats = append(st.lats, lat.Seconds())
		}
		if eng.obs != nil {
			ev := *d
			if rec.rev == nil {
				ev.At = rec.start
			}
			ev.Latency, ev.Rank, ev.File = lat, sh.node, rec.path
			eng.obs(ev)
		}
	} else {
		st.shed++
		st.deadlineMiss++
	}
	if eng.outObs != nil {
		eng.outObs(OutcomeEvent{
			At: now, Tenant: st.spec.Name, Kind: kind,
			Bytes: d.Bytes, Retries: out.Retries, Hedges: out.Hedges,
		})
	}
	rec.release()
}

// serve performs one request's I/O on a mount.
func serve(p *sim.Proc, cl fsapi.Client, rec *request) {
	d := rec.desc()
	switch d.Op {
	case trace.OpWrite:
		cl.StreamWrite(p, rec.path, fsapi.Sequential, rec.io, d.Bytes)
	case trace.OpRead:
		cl.StreamRead(p, rec.path, fsapi.Sequential, rec.io, d.Bytes)
	case trace.OpRandRead:
		cl.StreamRead(p, rec.path, fsapi.Random, rec.io, d.Bytes)
	case trace.OpMeta:
		f := cl.Open(p, rec.path, false)
		f.Close(p)
	}
}

// ioBytesOf is the per-op transfer size a recording should carry for a
// tenant: its configured IOBytes for data workloads, 0 for metadata (no
// data moves, so there is no op size).
func ioBytesOf(t *Tenant) int64 {
	if t.Workload == Metadata {
		return 0
	}
	return t.IOBytes
}

// tagged attributes a mount's fabric traffic to the tenant when the mount
// supports flow tags.
func tagged(cl fsapi.Client, tenant string) fsapi.Client {
	if tg, ok := cl.(fsapi.FlowTagger); ok {
		tg.SetFlowTag(tenant)
	}
	return cl
}
