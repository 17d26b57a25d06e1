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

// recordPages is how many consecutive pages one reverse-lookup record
// block covers: a 64-byte line holds eight 8-byte records.
const recordPages = 8

// rltWalkLatency is the cost of rebuilding a record block from the OS
// synonym-range table when neither the record cache nor the data caches
// hold it (an OS-structure lookup off the critical L1 path).
const rltWalkLatency = 40

// RLTVC is a virtually tagged hierarchy whose synonym detection uses an
// exact reverse-lookup table instead of the hybrid design's Bloom filter:
// a per-core record cache answers "is this page a synonym?" precisely, its
// misses probe the data caches for the record block (a typed-payload line
// bitmap covering recordPages pages), and only a full miss rebuilds the
// record from the OS synonym ranges. Exactness trades the Bloom filter's
// false positives for record storage that competes with data in the LLC —
// the fig4/table2-style comparison this organization exists for.
//
// It is the hybrid MMU with the record cache as the SynonymFront's
// classifier: the record cache is also the synonym TLB (its synonym
// entries carry the translation), and virtual routing, delayed
// translation and writeback machinery are the hybrid MMU's verbatim.
type RLTVC struct {
	*HybridMMU

	// RLTWalks counts record rebuilds from the OS ranges (both the record
	// cache and the data caches missed).
	RLTWalks stats.Counter
	// CachedRecordHits counts record-cache misses served by a cached
	// record block instead of a rebuild.
	CachedRecordHits stats.Counter
	// RecordFills counts record blocks installed after rebuilds.
	RecordFills stats.Counter
	// RecordEvictions counts record blocks pushed out of the LLC by data
	// (or flushed on synonym-range changes).
	RecordEvictions stats.Counter
}

// NewRLTVC builds the organization and registers as the kernel's sink and
// the hierarchy's payload-eviction listener.
func NewRLTVC(cfg HybridConfig, k *osmodel.Kernel) *RLTVC {
	m := &RLTVC{HybridMMU: &HybridMMU{}}
	m.HybridMMU.init(cfg, k, m, "rlt")
	m.Hier.SetPayloadListener(m)
	k.AttachSink(m)
	return m
}

// Name implements MemSystem.
func (m *RLTVC) Name() string { return "rlt-vc" }

// RLT exposes core i's record cache.
func (m *RLTVC) RLT(core int) *tlb.TLB { return m.SynTLB(core) }

// recordGroup returns the base VPN of the record block covering vpn.
func recordGroup(vpn uint64) uint64 { return vpn &^ (recordPages - 1) }

// recordName is the cache name of the record block covering (asid, vpn).
func recordName(asid addr.ASID, vpn uint64) addr.Name {
	return addr.PayloadName(addr.PayloadSynRecord, asid, addr.PageToVA(recordGroup(vpn)))
}

// recordBitmap rebuilds a record block's payload from the authoritative OS
// synonym ranges: bit i is set when page group+i lies in a live range.
func recordBitmap(proc *osmodel.Process, group uint64) uint64 {
	var bits uint64
	for i := uint64(0); i < recordPages; i++ {
		va := addr.PageToVA(group + i)
		for _, r := range proc.SynonymRanges {
			if va >= r.Start && va < r.Start+addr.VA(r.Length) {
				bits |= 1 << i
				break
			}
		}
	}
	return bits
}

// lookupRecord classifies vpn after a record-cache miss: it probes the
// data caches for the record block and rebuilds it from the OS ranges on a
// full miss, charging the latency into res.
func (m *RLTVC) lookupRecord(req *Request, res *Result) bool {
	vpn := req.VA.Page()
	name := recordName(req.Proc.ASID, vpn)
	m.Sync()
	payload, lat, hit := m.Hier.ProbePayload(req.Core, name)
	res.Latency += lat
	if p := m.Probe(); p != nil {
		p.TLB(pipeline.TLBEvent{Core: req.Core, Level: pipeline.TLBXlatCache, Hit: hit})
	}
	if hit {
		m.CachedRecordHits.Inc()
	} else {
		m.RLTWalks.Inc()
		m.Acc.Access(energy.SegmentTable, 1)
		res.Latency += rltWalkLatency
		payload = recordBitmap(req.Proc, recordGroup(vpn))
		m.Hier.FillPayload(req.Core, name, payload)
		m.RecordFills.Inc()
	}
	return payload>>(vpn-recordGroup(vpn))&1 != 0
}

// classify implements synonymParts with the record cache. It replaces the
// Bloom filter probe (same overlapped position, same energy component),
// and its verdict is exact: a synonym classification is always true, so
// the false-positive path never runs and the FalsePositives counter stays
// zero by construction. The record-cache lookup doubles as the synonym
// TLB lookup, so its entry goes back to the front end.
func (m *RLTVC) classify(req *Request, res *Result) (bool, *tlb.Entry, bool) {
	m.Acc.Access(energy.SynonymFilter, 1)
	vpn := req.VA.Page()
	e, hit := m.SynTLB(req.Core).Lookup(req.Proc.ASID, vpn)
	if p := m.Probe(); p != nil {
		p.TLB(pipeline.TLBEvent{Core: req.Core, Level: pipeline.TLBRLT, Hit: hit})
	}
	var isSyn bool
	if hit {
		isSyn = !e.NonSynonym
	} else {
		isSyn = m.lookupRecord(req, res)
	}
	if p := m.Probe(); p != nil {
		p.Filter(pipeline.FilterEvent{Core: req.Core, Candidate: isSyn})
	}
	if !isSyn && !hit {
		m.insertNonSynonym(req.Core, req.Proc, vpn)
	}
	return isSyn, e, true
}

// walk implements synonymParts: the hybrid MMU's 1D walk, but the record
// cache's classification is exact, so a walked entry is always a synonym.
func (m *RLTVC) walk(core int, proc *osmodel.Process, va addr.VA) (tlb.Entry, uint64, bool) {
	e, lat, ok := m.HybridMMU.walk(core, proc, va)
	e.NonSynonym = false
	return e, lat, ok
}

// insertNonSynonym caches a page's non-synonym classification, carrying
// the page-table frame so the entry audits cleanly against the tables.
// Unmapped pages (demand paging still pending) are not cached: the fault
// path runs first and the next access retries.
func (m *RLTVC) insertNonSynonym(core int, proc *osmodel.Process, vpn uint64) {
	pte, ok := proc.PT.Lookup(addr.PageToVA(vpn))
	if !ok {
		return
	}
	pfn := pte.Frame
	if pte.Huge {
		pfn |= vpn & (addr.HugePageSize/addr.PageSize - 1)
	}
	m.SynTLB(core).Insert(tlb.Entry{
		ASID: proc.ASID, VPN: vpn, PFN: pfn,
		Perm: pte.Perm, Shared: pte.Shared, NonSynonym: true,
	})
}

// PayloadEvicted implements cache.PayloadListener: a record block left the
// LLC (data pushed it out, or a flush below removed it).
func (m *RLTVC) PayloadEvicted(addr.Name, uint64) { m.RecordEvictions.Inc() }

// PayloadCoherence audits one cached record block against the live OS
// synonym ranges (the fault checker's PayloadCoherence hook).
func (m *RLTVC) PayloadCoherence(n addr.Name, payload uint64) error {
	if n.Kind != addr.PayloadSynRecord {
		return fmt.Errorf("rlt-vc: unexpected payload kind in block %s", n)
	}
	proc := m.kernel.Process(n.ASID)
	if proc == nil {
		return fmt.Errorf("rlt-vc: record block %s names dead address space", n)
	}
	if want := recordBitmap(proc, addr.VA(n.Addr).Page()); payload != want {
		return fmt.Errorf("rlt-vc: record block %s bitmap %#x disagrees with synonym ranges (%#x)",
			n, payload, want)
	}
	return nil
}

// flushRecords removes every cached record block of the address space,
// with notification.
func (m *RLTVC) flushRecords(asid addr.ASID) {
	var doomed []addr.Name
	m.Hier.ForEachPayload(func(n addr.Name, _ uint64) {
		if n.Kind == addr.PayloadSynRecord && n.ASID == asid {
			doomed = append(doomed, n)
		}
	})
	for _, n := range doomed {
		m.Hier.FlushName(n)
	}
}

// --- osmodel.ShootdownSink (extends the inner hybrid MMU's handling) ---

// TLBShootdown additionally flushes the page's record block: the remap
// may change the page's synonym classification, so the cached record must
// be rebuilt.
func (m *RLTVC) TLBShootdown(asid addr.ASID, vpn uint64) {
	m.HybridMMU.TLBShootdown(asid, vpn)
	m.Hier.FlushName(recordName(asid, vpn))
}

// FilterUpdate fires when an address space's synonym ranges changed: the
// exact records are rebuilt lazily, so every cached classification of the
// space is dropped.
func (m *RLTVC) FilterUpdate(asid addr.ASID) {
	m.HybridMMU.FilterUpdate(asid)
	for _, rc := range m.synTLB {
		rc.FlushASID(asid)
	}
	m.flushRecords(asid)
}

var _ cache.PayloadListener = (*RLTVC)(nil)
