package pipeline

import (
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/energy"
)

// Verdict is a FrontEnd's routing decision for one reference.
type Verdict uint8

const (
	// Done means the front end completed the access itself (an
	// unrecoverable fault dead-end, or a fault-and-retry that already
	// folded the retried access into the result).
	Done Verdict = iota
	// Physical sends the access through the cache stage under its
	// physical (machine) address.
	Physical
	// Virtual sends the access through the cache stage under ASID+VA,
	// deferring translation to the Backend on an LLC miss.
	Virtual
)

// Decision carries a Verdict and the address/permission it resolved.
type Decision struct {
	Verdict Verdict
	PA      addr.PA
	Perm    addr.Perm
}

// DoneNow reports the access as already completed by the front end.
func DoneNow() Decision { return Decision{Verdict: Done} }

// GoPhysical routes the access physically at pa.
func GoPhysical(pa addr.PA, perm addr.Perm) Decision {
	return Decision{Verdict: Physical, PA: pa, Perm: perm}
}

// GoVirtual routes the access virtually; perm is recorded on cache fills.
func GoVirtual(perm addr.Perm) Decision {
	return Decision{Verdict: Virtual, Perm: perm}
}

// FrontEnd is the pre-L1 stage: synonym filtering, TLB lookups, range or
// direct segments, permission checks and the faults they raise. Route
// accumulates front-end latency/faults into res and decides how (or
// whether) the cache stage runs.
type FrontEnd interface {
	Route(req *Request, res *Result) Decision
}

// CacheStage replaces the default full-hierarchy cache access for
// organizations whose hierarchy is not uniformly addressed (OVC's
// virtual-L1/physical-outer split). Physical completes a physically
// routed access; Virtual completes a virtually routed one and returns the
// hierarchy outcome for the Backend.
type CacheStage interface {
	Physical(req *Request, pa addr.PA, perm addr.Perm, res *Result)
	Virtual(req *Request, perm addr.Perm, res *Result) cache.AccessResult
}

// Backend is the post-LLC stage of virtually routed accesses: delayed
// translation on the miss, DRAM, and writeback translation.
type Backend interface {
	Finish(req *Request, res *Result, hres *cache.AccessResult)
}

// Prefetcher is an optional FrontEnd extension: AccessBatch calls
// Prefetch with each block of up to prefetchBlock upcoming references
// before routing them, so a front end can touch the slots of its own
// large tables ahead of use and overlap their host-memory latency.
// Prefetch must not change simulated state.
type Prefetcher interface {
	Prefetch(reqs []Request)
}

// Engine executes a declaratively composed organization: it owns the
// shared substrate (Base) and runs FrontEnd -> cache stage -> Backend for
// every reference. Organizations embed *Engine and so inherit Access,
// AccessBatch, Energy, Hierarchy and the Base plumbing; a complete
// MemSystem is the engine plus a Name method and the stage hooks.
type Engine struct {
	*Base
	front    FrontEnd
	cache    CacheStage // nil: the standard full hierarchy
	back     Backend    // nil: no post-LLC stage
	prefetch Prefetcher // nil: the front end prefetches nothing

	// The lanes of the batch in progress: reqs and res are the caller's
	// slices, dec the engine-owned decision of each routed lane. Lanes
	// [pend, cur) are routed but not yet dispatched; cur is the lane
	// being routed.
	reqs      []Request
	res       []Result
	dec       []Decision
	pend, cur int

	// wbs snapshots a virtual access's writebacks so backend stages can
	// walk them while nested accesses (page walks) reuse the hierarchy's
	// scratch buffer.
	wbs []addr.Name
	// hres is the reusable hierarchy outcome handed to the Backend. A
	// local would escape through the interface call and cost one heap
	// allocation per virtually routed access. Reuse is safe: re-entrant
	// accesses (fault retries) finish before the outcome is stored.
	hres cache.AccessResult
	// touch accumulates TouchSets checksums so the prefetch pass cannot be
	// dead-code-eliminated.
	touch uint64
}

// NewEngine composes an organization. cacheStage and back may be nil.
func NewEngine(base *Base, front FrontEnd, cacheStage CacheStage, back Backend) *Engine {
	e := &Engine{Base: base, front: front, cache: cacheStage, back: back}
	e.prefetch, _ = front.(Prefetcher)
	return e
}

// Energy implements MemSystem for every organization.
func (e *Engine) Energy() *energy.Accumulator { return e.Acc }

// Hierarchy implements MemSystem for every organization.
func (e *Engine) Hierarchy() *cache.Hierarchy { return e.Hier }

// Access performs one reference through the stage pipeline.
func (e *Engine) Access(req Request) Result {
	var res Result
	e.access(&req, &res)
	return res
}

// AccessBatch performs len(reqs) references in order, writing outcome i
// into res[i]. It is the allocation-free hot path: both slices are caller
// provided (and reused across calls), and the hierarchy, translator and
// writeback plumbing run on engine-owned scratch buffers. Results are
// identical to len(reqs) scalar Access calls.
//
// It panics when res is shorter than reqs. When res is longer, only the
// first len(reqs) entries are written; the tail is left untouched (not
// zeroed), so callers may batch into a window of a larger reusable buffer.
// A zero-length batch returns immediately without touching engine state.
//
// With no probe attached the engine routes each reference in order and
// defers its cache and backend stages. The deferred lanes are dispatched
// at the front end's next Sync barrier and at the end of the batch, in
// blocks whose hierarchy sets are touched first to overlap host-memory
// latency. A barrier precedes every effect that dispatch order could
// change, so the deferral is invisible in the results. With a probe
// attached every reference is dispatched as soon as it is routed,
// preserving the per-reference event order observers rely on.
func (e *Engine) AccessBatch(reqs []Request, res []Result) {
	if len(res) < len(reqs) {
		panic("pipeline: AccessBatch result slice shorter than request slice")
	}
	if len(reqs) == 0 {
		return
	}
	res = res[:len(reqs)]
	for i := range res {
		res[i] = Result{}
	}
	if e.probe != nil {
		for i := range reqs {
			e.access(&reqs[i], &res[i])
		}
		return
	}
	if cap(e.dec) < len(reqs) {
		e.dec = make([]Decision, len(reqs))
	}
	e.reqs, e.res, e.dec = reqs, res, e.dec[:len(reqs)]
	e.pend = 0
	e.batch = e
	for i := range reqs {
		if e.prefetch != nil && i%prefetchBlock == 0 {
			e.prefetch.Prefetch(reqs[i:min(i+prefetchBlock, len(reqs))])
		}
		e.cur = i
		e.dec[i] = e.front.Route(&reqs[i], &res[i])
	}
	e.cur = len(reqs)
	e.flush()
	e.batch = nil
	e.reqs, e.res = nil, nil
}

// prefetchBlock is the number of lanes whose front-end state and cache
// sets are touched ahead of use. Large enough to give the host CPU real
// memory-level parallelism across independent loads, small enough that
// the touched lines still sit in host caches when their lane runs.
const prefetchBlock = 32

// flush dispatches the deferred lanes [pend, cur): for each block of up to
// prefetchBlock lanes it first touches the hierarchy sets the lanes will
// scan (semantically invisible — see Hierarchy.TouchSets), then runs the
// cache/backend stages per lane exactly as the scalar path would. A block
// of one lane skips the touch: there is no other load for it to overlap,
// and walk-bound streams, which sync before nearly every lane, flush one
// lane at a time. pend advances before any lane runs, so a Sync from a
// nested access (a fault retry, a backend walk) finds nothing pending.
func (e *Engine) flush() {
	lo, hi := e.pend, e.cur
	e.pend = hi
	for ; lo < hi; lo += prefetchBlock {
		end := min(lo+prefetchBlock, hi)
		if e.cache == nil && end-lo > 1 {
			e.prefetchLanes(lo, end)
		}
		for i := lo; i < end; i++ {
			e.dispatch(&e.reqs[i], &e.res[i], e.dec[i])
		}
	}
}

// prefetchLanes touches the hierarchy sets each lane in [lo, hi) will
// scan. The checksum accumulates into e.touch so the loads stay live.
func (e *Engine) prefetchLanes(lo, hi int) {
	t := e.touch
	for i := lo; i < hi; i++ {
		req, d := &e.reqs[i], &e.dec[i]
		switch d.Verdict {
		case Physical:
			t += e.Hier.TouchSets(req.Core, req.Kind, addr.PhysName(d.PA))
		case Virtual:
			t += e.Hier.TouchSets(req.Core, req.Kind, addr.VirtName(req.Proc.ASID, req.VA))
		}
	}
	e.touch = t
}

// Retry re-executes the request after a fault repaired the mapping and
// folds the retried outcome into res. res.Fault stays set: the original
// reference did fault, whatever the retry then did. The retried access
// re-enters the pipeline, so it emits its own Route/Cache events; the
// Retry event lets observers reconcile event counts with the number of
// references the driver issued.
func (e *Engine) Retry(req *Request, res *Result) {
	e.Sync()
	if p := e.probe; p != nil {
		p.Retry(RetryEvent{Core: req.Core, Kind: req.Kind, VA: req.VA})
	}
	r2 := e.Access(*req)
	res.Latency += r2.Latency
	res.LLCMiss = r2.LLCMiss
	res.HitLevel = r2.HitLevel
}

// access runs the three stages for one reference. Probe events fire from
// the stable points of the flow: Route after the front end decided, Cache
// after the hierarchy (and, for virtual routes, the backend) completed —
// so the CacheEvent carries the reference's final HitLevel/LLCMiss on the
// unified scale regardless of which cache stage ran.
func (e *Engine) access(req *Request, res *Result) {
	d := e.front.Route(req, res)
	if p := e.probe; p != nil {
		p.Route(RouteEvent{Core: req.Core, Kind: req.Kind, VA: req.VA, Verdict: d.Verdict})
	}
	e.dispatch(req, res, d)
	if p := e.probe; p != nil && d.Verdict != Done {
		p.Cache(CacheEvent{Core: req.Core, Kind: req.Kind, Virtual: d.Verdict == Virtual,
			HitLevel: res.HitLevel, LLCMiss: res.LLCMiss})
	}
}

// dispatch runs the cache stage and, for virtual routes, the backend of
// one routed reference.
func (e *Engine) dispatch(req *Request, res *Result, d Decision) {
	switch d.Verdict {
	case Physical:
		if e.cache != nil {
			e.cache.Physical(req, d.PA, d.Perm, res)
			return
		}
		lat, hres := e.PhysAccess(req.Core, req.Kind, d.PA, d.Perm)
		res.Latency += lat
		res.LLCMiss = hres.LLCMiss
		res.HitLevel = hres.HitLevel
	case Virtual:
		if e.cache != nil {
			e.hres = e.cache.Virtual(req, d.Perm, res)
		} else {
			e.hres = e.Hier.Access(req.Core, req.Kind, addr.VirtName(req.Proc.ASID, req.VA), d.Perm)
			// Snapshot the writebacks: the backend may issue nested
			// hierarchy accesses (walks) that reuse the scratch buffer
			// backing hres.Writebacks.
			e.wbs = append(e.wbs[:0], e.hres.Writebacks...)
			e.hres.Writebacks = e.wbs
			res.Latency += e.hres.Latency
			res.HitLevel = e.hres.HitLevel
		}
		if e.back != nil {
			e.back.Finish(req, res, &e.hres)
		}
	}
}
