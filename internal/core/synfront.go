package core

import (
	"fmt"

	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/energy"
	"hybridvc/internal/osmodel"
	"hybridvc/internal/pipeline"
	"hybridvc/internal/stats"
	"hybridvc/internal/tlb"
)

// SynonymFront is the pre-L1 front end the hybrid organizations share
// (Figure 1, Section III-A): a synonym classifier decides per reference
// whether the access takes the synonym-TLB path and is cached physically,
// or goes through the hierarchy under ASID+VA. SynonymFront owns the
// per-core synonym TLBs, the shadow permission table, the synonym-path
// permission and copy-on-write handling, and the route counters. The
// parts that differ between organizations — the classifier and the walk
// that fills the synonym TLB — come from its synonymParts, and each
// organization adds its own backend.
type SynonymFront struct {
	*pipeline.Engine
	parts  synonymParts
	synTLB []*tlb.TLB

	// shadowPerm caches translation permissions for cache fills
	// (simulator bookkeeping, not hardware state).
	shadowPerm *permTable
	// touch accumulates shadow-permission prefetch loads so they stay live.
	touch uint64

	SynonymCandidates   stats.Counter // accesses routed to the TLB path
	FalsePositives      stats.Counter // candidates that were non-synonyms
	TrueSynonymAccesses stats.Counter
	NonSynonymAccesses  stats.Counter
	FilterReloads       stats.Counter
}

// synonymParts are what an organization plugs into the SynonymFront.
type synonymParts interface {
	// classify charges the classifier's energy and latency into res and
	// reports whether req is a synonym candidate. A classifier that looks
	// up the synonym TLB itself (the exact record cache) returns the entry
	// it found, nil on a miss, with looked set.
	classify(req *Request, res *Result) (cand bool, e *tlb.Entry, looked bool)
	// falsePositive notes a candidate the synonym TLB corrected.
	falsePositive(proc *osmodel.Process)
	// walk translates va for a synonym-TLB fill and returns the entry to
	// insert, its latency, and whether the page is mapped.
	walk(core int, proc *osmodel.Process, va addr.VA) (tlb.Entry, uint64, bool)
}

// newSynonymFront builds the front end and the organization's one engine
// over base, with back as the engine's backend.
func newSynonymFront(parts synonymParts, base *Base, back pipeline.Backend, cores, entries int, name string) *SynonymFront {
	f := &SynonymFront{parts: parts, shadowPerm: newPermTable()}
	f.Engine = pipeline.NewEngine(base, f, nil, back)
	for i := 0; i < cores; i++ {
		f.synTLB = append(f.synTLB, tlb.New(tlb.Config{
			Name: fmt.Sprintf("%s[%d]", name, i), Entries: entries, Ways: 4, Latency: 1,
		}))
	}
	return f
}

// SynTLB exposes core i's synonym TLB.
func (f *SynonymFront) SynTLB(core int) *tlb.TLB { return f.synTLB[core] }

// Route implements pipeline.FrontEnd.
func (f *SynonymFront) Route(req *Request, res *Result) pipeline.Decision {
	cand, e, looked := f.parts.classify(req, res)
	if !cand {
		f.NonSynonymAccesses.Inc()
		return f.routeVirtual(req, res)
	}
	f.SynonymCandidates.Inc()
	return f.routeSynonym(req, res, e, looked)
}

// Prefetch implements pipeline.Prefetcher: it touches the shadow
// permission slots of the upcoming references. The table is large on big
// footprints, so its probes are host-cache misses; touching a block of
// home slots up front lets those independent loads overlap.
func (f *SynonymFront) Prefetch(reqs []Request) {
	t := f.touch
	for i := range reqs {
		t += f.shadowPerm.touch(makePermKey(reqs[i].Proc.ASID, reqs[i].VA.Page()))
	}
	f.touch = t
}

// routeSynonym handles synonym candidates: TLB before L1 (Section III-A).
// e and looked carry a lookup the classifier already made.
func (f *SynonymFront) routeSynonym(req *Request, res *Result, e *tlb.Entry, looked bool) pipeline.Decision {
	st := f.synTLB[req.Core]
	f.Acc.Access(energy.SynonymTLB, 1)
	res.Latency += st.Config().Latency
	if !looked {
		e, _ = st.Lookup(req.Proc.ASID, req.VA.Page())
		if p := f.Probe(); p != nil {
			p.TLB(pipeline.TLBEvent{Core: req.Core, Level: pipeline.TLBSynonym, Hit: e != nil})
		}
	}
	if e == nil {
		ne, lat, ok := f.parts.walk(req.Core, req.Proc, req.VA)
		res.Latency += lat
		if !ok {
			fl, fixed := f.HandleFault(req.Proc, req.VA, req.Kind == cache.Write)
			res.Latency += fl
			res.Fault = true
			if !fixed {
				return pipeline.DoneNow()
			}
			ne, lat, ok = f.parts.walk(req.Core, req.Proc, req.VA)
			res.Latency += lat
			if !ok {
				return pipeline.DoneNow()
			}
		}
		st.Insert(ne)
		e = &ne
	}

	if e.NonSynonym {
		// Filter false positive: the TLB entry corrects it; proceed with
		// ASID+VA (the L1 block accessed with ASID+VA is used).
		f.FalsePositives.Inc()
		if p := f.Probe(); p != nil {
			p.FalsePositive(pipeline.FalsePositiveEvent{Core: req.Core, VA: req.VA})
		}
		f.parts.falsePositive(req.Proc)
		return f.routeVirtual(req, res)
	}
	f.TrueSynonymAccesses.Inc()

	// Permission check before the cache access.
	if req.Kind == cache.Write && !e.Perm.AllowsWrite() {
		fl, fixed := f.HandleFault(req.Proc, req.VA, true)
		res.Latency += fl
		res.Fault = true
		if !fixed {
			return pipeline.DoneNow()
		}
		// The fault remapped the page privately (CoW); retry as a fresh
		// access (the shootdown already removed the stale entry).
		f.Retry(req, res)
		return pipeline.DoneNow()
	}
	return pipeline.GoPhysical(addr.FrameToPA(e.PFN)+addr.PA(req.VA.PageOffset()), e.Perm)
}

// routeVirtual handles non-synonym accesses: demand-paging and CoW faults
// up front, then ASID+VA through the whole hierarchy.
func (f *SynonymFront) routeVirtual(req *Request, res *Result) pipeline.Decision {
	perm := f.fillPerm(req.Proc, req.VA)
	if perm == addr.PermNone {
		// Unmapped: demand paging fault, then retry.
		fl, fixed := f.HandleFault(req.Proc, req.VA, req.Kind == cache.Write)
		res.Latency += fl
		res.Fault = true
		if !fixed {
			return pipeline.DoneNow()
		}
		perm = f.fillPerm(req.Proc, req.VA)
		if perm == addr.PermNone {
			return pipeline.DoneNow()
		}
	}
	if req.Kind == cache.Write && !perm.AllowsWrite() {
		fl, fixed := f.HandleFault(req.Proc, req.VA, true)
		res.Latency += fl
		res.Fault = true
		if !fixed {
			return pipeline.DoneNow()
		}
		perm = f.fillPerm(req.Proc, req.VA)
	}
	return pipeline.GoVirtual(perm)
}

// fillPerm returns the permission to record on a fill of (asid, page),
// from the shadow cache or the process (guest) page tables.
func (f *SynonymFront) fillPerm(proc *osmodel.Process, va addr.VA) addr.Perm {
	key := makePermKey(proc.ASID, va.Page())
	if p, ok := f.shadowPerm.get(key); ok {
		return p
	}
	pte, ok := proc.PT.Lookup(va.PageAligned())
	if !ok {
		return addr.PermNone
	}
	f.shadowPerm.set(key, pte.Perm)
	return pte.Perm
}

// --- the shared part of osmodel.ShootdownSink ---

// shootdown invalidates (asid, vpn) in every synonym TLB and drops its
// shadow permission.
func (f *SynonymFront) shootdown(asid addr.ASID, vpn uint64) {
	for _, st := range f.synTLB {
		st.Shootdown(asid, vpn)
	}
	f.shadowPerm.del(makePermKey(asid, vpn))
}

// FlushPage removes a page's lines from the hierarchy.
func (f *SynonymFront) FlushPage(page addr.Name) {
	f.Hier.FlushPage(page)
	if !page.Synonym {
		f.shadowPerm.del(makePermKey(page.ASID, page.Page()))
	}
}

// SetPagePerm updates cached permission bits (r/o content sharing).
func (f *SynonymFront) SetPagePerm(page addr.Name, perm addr.Perm) {
	f.Hier.SetPagePerm(page, perm)
	if !page.Synonym {
		f.shadowPerm.set(makePermKey(page.ASID, page.Page()), perm)
	}
}

// FilterUpdate models the per-core filter storage reload after the OS
// changes an address space's synonym filter.
func (f *SynonymFront) FilterUpdate(addr.ASID) { f.FilterReloads.Inc() }

// flushASID removes the address space from the hierarchy, the synonym
// TLBs and the shadow permissions.
func (f *SynonymFront) flushASID(asid addr.ASID) {
	f.Hier.FlushASID(asid)
	for _, st := range f.synTLB {
		st.FlushASID(asid)
	}
	f.shadowPerm.flushASID(asid)
}
