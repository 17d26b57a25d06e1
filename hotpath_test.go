// Tests of the batched access hot path: AccessBatch must be
// result-identical to scalar Access calls on every organization, and
// allocation-free once the structures it touches are warm.
package hybridvc_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hybridvc"
	"hybridvc/internal/addr"
	"hybridvc/internal/cache"
	"hybridvc/internal/core"
	"hybridvc/internal/energy"
	"hybridvc/internal/stats"
	"hybridvc/internal/tlb"
)

// newHotpathSystem builds a system with one loaded workload. A small LLC
// keeps the miss paths (delayed translation, writeback translation) busy.
func newHotpathSystem(t testing.TB, org hybridvc.Organization, wl string) *hybridvc.System {
	t.Helper()
	sys, err := hybridvc.New(hybridvc.Config{Org: org, LLCBytes: 256 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadWorkload(wl); err != nil {
		t.Fatal(err)
	}
	return sys
}

// collectRequests draws n data references from the system's first
// generator. Two systems built with the same seed yield the same VA/kind
// sequence, so equivalence tests can drive twins with matching streams.
func collectRequests(sys *hybridvc.System, n int) []core.Request {
	g := sys.Generators()[0]
	reqs := make([]core.Request, 0, n)
	for len(reqs) < n {
		in := g.Next()
		if !in.IsMem || in.Mispredict {
			continue
		}
		kind := cache.Read
		if in.IsStore {
			kind = cache.Write
		}
		reqs = append(reqs, core.Request{Core: 0, Kind: kind, VA: in.VA, Proc: g.Proc})
	}
	return reqs
}

// TestAccessBatchMatchesScalar drives two identically seeded systems of
// every organization with the same reference stream — one through scalar
// Access calls, one through chunked AccessBatch — and requires identical
// per-reference results (latency, hit level, LLC miss, fault) and an
// identical end state: energy counts, the shared fault and walk counters,
// and the organization's own route and TLB counters. gups exercises the
// delayed-translation and walk paths; postgres adds shared memory, so
// the synonym path and its TLB run under batching too.
func TestAccessBatchMatchesScalar(t *testing.T) {
	const n, chunk = 4000, 128
	for _, org := range hybridvc.Organizations() {
		org := org
		t.Run(string(org), func(t *testing.T) {
			for _, wl := range []string{"gups", "postgres"} {
				t.Run(wl, func(t *testing.T) { testBatchMatchesScalar(t, org, wl, n, chunk) })
			}
		})
	}
}

func testBatchMatchesScalar(t *testing.T, org hybridvc.Organization, wl string, n, chunk int) {
	scalarSys := newHotpathSystem(t, org, wl)
	batchSys := newHotpathSystem(t, org, wl)
	sreqs := collectRequests(scalarSys, n)
	breqs := collectRequests(batchSys, n)
	for i := range sreqs {
		if sreqs[i].VA != breqs[i].VA || sreqs[i].Kind != breqs[i].Kind {
			t.Fatalf("request streams diverge at %d: %+v vs %+v", i, sreqs[i], breqs[i])
		}
	}

	want := make([]core.Result, n)
	for i := range sreqs {
		want[i] = scalarSys.Mem.Access(sreqs[i])
	}
	got := make([]core.Result, n)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		batchSys.Mem.AccessBatch(breqs[lo:hi], got[lo:hi])
	}

	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("result %d (VA %#x, kind %v): scalar %+v, batch %+v",
				i, sreqs[i].VA, sreqs[i].Kind, want[i], got[i])
		}
	}
	if s, b := scalarSys.Mem.Energy().Snapshot(), batchSys.Mem.Energy().Snapshot(); s != b {
		t.Errorf("energy counts differ:\nscalar %v\nbatch  %v", s, b)
	}
	if s, b := endState(scalarSys.Mem), endState(batchSys.Mem); s != b {
		t.Errorf("end state differs:\nscalar %s\nbatch  %s", s, b)
	}
}

// endState renders an organization's counters: every exported
// stats.Counter reachable through embedded structs (the shared Base's
// Faults and WalkSteps, the route counters) plus the hit/miss statistics
// of the TLBs the organization exposes.
func endState(m core.MemSystem) string {
	var b strings.Builder
	counters(&b, reflect.ValueOf(m))
	hm := func(name string, s stats.HitMiss) {
		fmt.Fprintf(&b, "%s=%d/%d ", name, s.Hits.Value(), s.Misses.Value())
	}
	if x, ok := m.(interface{ SynTLB(int) *tlb.TLB }); ok {
		hm("syn-tlb", x.SynTLB(0).Stats)
	}
	if x, ok := m.(interface{ RLT(int) *tlb.TLB }); ok {
		hm("rlt", x.RLT(0).Stats)
	}
	if x, ok := m.(interface{ TLB(int) *tlb.TwoLevel }); ok {
		hm("l1-tlb", x.TLB(0).L1.Stats)
		hm("l2-tlb", x.TLB(0).L2.Stats)
	}
	if x, ok := m.(interface{ DelayedTLB() *tlb.TLB }); ok && x.DelayedTLB() != nil {
		hm("delayed-tlb", x.DelayedTLB().Stats)
	}
	return b.String()
}

var counterType = reflect.TypeOf(stats.Counter(0))

// counters appends name=value for each exported stats.Counter field of v,
// descending into embedded structs only (other pointers may cycle).
func counters(b *strings.Builder, v reflect.Value) {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		switch {
		case !f.IsExported():
		case f.Type == counterType:
			fmt.Fprintf(b, "%s=%d ", f.Name, v.Field(i).Uint())
		case f.Anonymous:
			counters(b, v.Field(i))
		}
	}
}

// TestAccessBatchShortResultPanics pins the documented contract.
func TestAccessBatchShortResultPanics(t *testing.T) {
	sys := newHotpathSystem(t, hybridvc.HybridManySegSC, "stream")
	reqs := collectRequests(sys, 2)
	defer func() {
		if recover() == nil {
			t.Error("AccessBatch with short result slice did not panic")
		}
	}()
	sys.Mem.AccessBatch(reqs, make([]core.Result, 1))
}

// TestAccessBatchLongResultTailUntouched pins the windowing contract:
// when res is longer than reqs, only the first len(reqs) entries are
// written and the tail is left exactly as the caller had it (not
// zeroed), so a chunking driver can batch into windows of one large
// reusable buffer.
func TestAccessBatchLongResultTailUntouched(t *testing.T) {
	const n, extra = 100, 60
	sys := newHotpathSystem(t, hybridvc.HybridManySegSC, "gups")
	reqs := collectRequests(sys, n)
	sentinel := core.Result{Latency: 0xdeadbeef, HitLevel: 9, LLCMiss: true, Fault: true}
	res := make([]core.Result, n+extra)
	for i := n; i < len(res); i++ {
		res[i] = sentinel
	}
	sys.Mem.AccessBatch(reqs, res)
	for i := 0; i < n; i++ {
		if res[i] == sentinel {
			t.Fatalf("res[%d] not written", i)
		}
	}
	for i := n; i < len(res); i++ {
		if res[i] != sentinel {
			t.Fatalf("res[%d] in the tail was touched: %+v", i, res[i])
		}
	}
}

// TestAccessBatchZeroLength pins the fast path: an empty batch returns
// immediately without touching engine state (no energy, no statistics)
// or the result slice.
func TestAccessBatchZeroLength(t *testing.T) {
	sys := newHotpathSystem(t, hybridvc.HybridManySegSC, "gups")
	// Warm with a little real traffic so "no state change" is a
	// meaningful claim about a live system, not a fresh one.
	warm := collectRequests(sys, 64)
	sys.Mem.AccessBatch(warm, make([]core.Result, len(warm)))

	energyBefore := sys.Mem.Energy().Dynamic()
	accessesBefore := sys.Mem.Hierarchy().LLC().Stats.Accesses()
	sentinel := core.Result{Latency: 0xdeadbeef, HitLevel: 9}
	res := []core.Result{sentinel, sentinel}

	sys.Mem.AccessBatch(nil, res)
	sys.Mem.AccessBatch([]core.Request{}, nil)

	if got := sys.Mem.Energy().Dynamic(); got != energyBefore {
		t.Errorf("zero-length batch spent energy: %v -> %v", energyBefore, got)
	}
	if got := sys.Mem.Hierarchy().LLC().Stats.Accesses(); got != accessesBefore {
		t.Errorf("zero-length batch touched the LLC: %d -> %d accesses", accessesBefore, got)
	}
	for i, r := range res {
		if r != sentinel {
			t.Errorf("zero-length batch wrote res[%d]: %+v", i, r)
		}
	}
}

// TestAccessBatchSteadyStateAllocs requires the batched hot path to run
// allocation-free in the steady state: after a warm-up pass has grown the
// engine's scratch buffers and filled the caches, repeated AccessBatch
// calls over a fixed request set must not allocate at all. Beyond the
// paper's flagship organization it pins the two payload-carrying designs,
// whose front ends ride the same batch machinery over typed-payload
// blocks.
func TestAccessBatchSteadyStateAllocs(t *testing.T) {
	for _, org := range []hybridvc.Organization{
		hybridvc.HybridManySegSC, hybridvc.Victima, hybridvc.RLTVC,
	} {
		org := org
		t.Run(string(org), func(t *testing.T) { testSteadyStateAllocs(t, org) })
	}
	// Walk-bound steady state: on a gups stream past warm-up most
	// references miss the TLB, so every batch runs timed page walks —
	// native 4-level walks on baseline, nested 2D walks on virt-2d —
	// whose PTE-address paths live in reused walker buffers.
	for _, org := range []hybridvc.Organization{hybridvc.Baseline, hybridvc.Virt2D} {
		org := org
		t.Run(string(org)+"/walk-bound", func(t *testing.T) { testWalkBoundAllocs(t, org) })
	}
}

func testWalkBoundAllocs(t *testing.T, org hybridvc.Organization) {
	const warm, batch, runs = 8192, 256, 20
	sys := newHotpathSystem(t, org, "gups")
	stream := collectRequests(sys, warm+(runs+1)*batch)
	res := make([]core.Result, len(stream))
	sys.Mem.AccessBatch(stream[:warm], res[:warm])

	// AllocsPerRun calls the function runs+1 times; each call takes the
	// next, not yet seen, batch of the stream.
	next := warm
	walksBefore := sys.Mem.Energy().Accesses[energy.PageWalk]
	avg := testing.AllocsPerRun(runs, func() {
		sys.Mem.AccessBatch(stream[next:next+batch], res[next:next+batch])
		next += batch
	})
	if avg != 0 {
		t.Errorf("walk-bound AccessBatch allocates %.2f times per call, want 0", avg)
	}
	if walks := sys.Mem.Energy().Accesses[energy.PageWalk] - walksBefore; walks < runs*batch/4 {
		t.Errorf("only %d page walks over %d references: not walk-bound", walks, (runs+1)*batch)
	}
}

func testSteadyStateAllocs(t *testing.T, org hybridvc.Organization) {
	sys := newHotpathSystem(t, org, "gups")
	g := sys.Generators()[0]

	// A fixed read set over the code region: 256 lines fit the L1, so the
	// steady state exercises the filter probe + virtual L1 hit path, the
	// common case the batching exists for.
	const lines = 256
	reqs := make([]core.Request, lines)
	for i := range reqs {
		va := g.CodeStart + addr.VA(uint64(i)*64)
		reqs[i] = core.Request{Core: 0, Kind: cache.Read, VA: va, Proc: g.Proc}
	}
	res := make([]core.Result, lines)

	// Warm: demand-fault the pages, fill the caches, grow scratch buffers.
	// A stretch of the real workload first also grows the miss-path
	// scratch (writeback snapshot, translator walk path).
	stream := collectRequests(sys, 4096)
	streamRes := make([]core.Result, len(stream))
	sys.Mem.AccessBatch(stream, streamRes)
	for i := 0; i < 3; i++ {
		sys.Mem.AccessBatch(reqs, res)
	}

	avg := testing.AllocsPerRun(50, func() {
		sys.Mem.AccessBatch(reqs, res)
	})
	if avg != 0 {
		t.Errorf("steady-state AccessBatch allocates %.2f times per call, want 0", avg)
	}
	for i := range res {
		if res[i].HitLevel != 1 {
			t.Fatalf("steady-state access %d not an L1 hit: %+v", i, res[i])
		}
	}

	// The probe layer must not break the guarantee in either state:
	// detached (the default — emission sites are bare nil-checks) or with
	// the counting probe attached (events pass by value, counters are
	// scalar fields).
	t.Run("counting-probe-attached", func(t *testing.T) {
		cp := &core.CountingProbe{}
		sys.Mem.SetProbe(cp)
		defer sys.Mem.SetProbe(nil)
		sys.Mem.AccessBatch(reqs, res)
		avg := testing.AllocsPerRun(50, func() {
			sys.Mem.AccessBatch(reqs, res)
		})
		if avg != 0 {
			t.Errorf("AccessBatch with CountingProbe allocates %.2f times per call, want 0", avg)
		}
		if cp.RouteTotal == 0 || cp.CacheAccesses == 0 {
			t.Error("counting probe saw no events while attached")
		}
	})
}

// TestConcurrentAccessBatch runs independent systems of the same
// organization through AccessBatch at the same time, as the experiments
// runner and the hvcd workers do. Under -race it catches state shared
// between simulations (a package-level sink or scratch buffer): the
// systems share nothing, so the detector must stay silent. The start
// channel releases both goroutines together so their batches overlap.
func TestConcurrentAccessBatch(t *testing.T) {
	for _, tc := range []struct {
		org hybridvc.Organization
		wl  string
	}{
		{hybridvc.HybridManySegSC, "gups"},
		{hybridvc.VirtHybrid, "postgres"},
	} {
		tc := tc
		t.Run(string(tc.org), func(t *testing.T) {
			const systems, n, chunk = 2, 2000, 128
			type run struct {
				sys  *hybridvc.System
				reqs []core.Request
				res  []core.Result
			}
			runs := make([]run, systems)
			for i := range runs {
				sys := newHotpathSystem(t, tc.org, tc.wl)
				runs[i] = run{sys: sys, reqs: collectRequests(sys, n), res: make([]core.Result, n)}
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range runs {
				wg.Add(1)
				go func(r run) {
					defer wg.Done()
					<-start
					for lo := 0; lo < n; lo += chunk {
						hi := min(lo+chunk, n)
						r.sys.Mem.AccessBatch(r.reqs[lo:hi], r.res[lo:hi])
					}
				}(runs[i])
			}
			close(start)
			wg.Wait()
			// Identically seeded systems must also agree with each other.
			if !reflect.DeepEqual(runs[0].res, runs[1].res) {
				t.Error("concurrent systems with the same seed returned different results")
			}
		})
	}
}
