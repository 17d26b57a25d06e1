package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hybridvc"
	"hybridvc/internal/core"
	"hybridvc/internal/sim"
)

// simWorkload is an in-process workload: long sim.Run calls of each
// organization in turn on one application, every org run on a freshly
// built system so modelled caches start empty.
type simWorkload struct {
	app   string
	cores int
	orgs  []hybridvc.Organization
	// insns is the per-core instruction count of one org run.
	insns uint64
	// setups is how many timed set-ups (one per org each) run before
	// every round, so setup_s is a median of enough samples taken over
	// the whole run.
	setups int
}

// The sim workloads mirror the paper's two comparisons: native baseline
// vs hybrid (Figure 9) and 2D-walk baseline vs virtualized hybrid
// (Figure 10). See README.md for why each application was chosen.
var simWorkloads = map[string]simWorkload{
	"sim-native": {
		app: "gups", cores: 1,
		orgs:  []hybridvc.Organization{hybridvc.Baseline, hybridvc.HybridManySegSC},
		insns: 2_000_000, setups: 7,
	},
	"sim-virt-synonym-2core": {
		app: "postgres", cores: 2,
		orgs:  []hybridvc.Organization{hybridvc.Virt2D, hybridvc.VirtHybrid},
		insns: 1_000_000, setups: 7,
	},
}

// orgRun is one freshly built system, ready to run.
type orgRun struct {
	sys   *hybridvc.System
	sim   *sim.Simulator
	tm    *timedMem // nil when untraced
	setup time.Duration
}

// build constructs the system exactly as hybridvc.System.Run would
// (hybridvc.New, LoadWorkload, sim.New with the default harness config),
// timing the whole set-up. With a tracer, set-up spans are recorded and
// the memory system is wrapped to time every AccessBatch call.
func (w simWorkload) build(org hybridvc.Organization, seed int64, tr *tracer, trace string) (*orgRun, error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := hybridvc.New(hybridvc.Config{Org: org, Cores: w.cores, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", org, err)
	}
	t1 := time.Now()
	if err := sys.LoadWorkload(w.app); err != nil {
		return nil, fmt.Errorf("%s: %w", org, err)
	}
	t2 := time.Now()
	r := &orgRun{sys: sys}
	var ms core.MemSystem = sys.Mem
	if tr != nil {
		r.tm = &timedMem{MemSystem: sys.Mem, tr: tr, trace: trace}
		ms = r.tm
	}
	r.sim = sim.New(sim.DefaultConfig(), ms, sys.Generators())
	r.setup = time.Since(t0)
	tr.add(trace, 0, "setup.new", t0, t1)
	tr.add(trace, 0, "setup.load", t1, t2)
	return r, nil
}

// run executes the org run and returns its report, its wall time and
// the steal-free part of the wall time.
func (w simWorkload) run(r *orgRun, tr *tracer, trace string) (rep sim.Report, wall, ran time.Duration) {
	runtime.GC()
	id := tr.open(trace, 0, "sim.run")
	if r.tm != nil {
		r.tm.parent = id
	}
	sw := startWatch()
	rep = r.sim.Run(w.insns)
	wall, ran = sw.stop()
	tr.close(id)
	return rep, wall, ran
}

// check is the per-report output check: the full instruction count on
// every core, no interruption, and a finite positive IPC.
func (w simWorkload) check(rep sim.Report) error {
	if want := w.insns * uint64(w.cores); rep.Instructions != want {
		return fmt.Errorf("%s: %d instructions retired, want %d", rep.Name, rep.Instructions, want)
	}
	if rep.Interrupted {
		return fmt.Errorf("%s: run interrupted", rep.Name)
	}
	if math.IsNaN(rep.IPC) || math.IsInf(rep.IPC, 0) || rep.IPC <= 0 {
		return fmt.Errorf("%s: IPC %v", rep.Name, rep.IPC)
	}
	return nil
}

// liveHeap forces a collection and returns the live heap in bytes. The
// caller keeps the org run's state reachable across the call, so this is
// the heap the run holds at its end, where its bookkeeping is largest.
func liveHeap() uint64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

// simRunner holds one invocation's state: the reference report of each
// org (the first run with this seed) and the output-check tally.
type simRunner struct {
	w       simWorkload
	seed    int64
	first   map[hybridvc.Organization]string
	tally   *tally
	maxHeap uint64
}

func newSimRunner(w simWorkload, seed int64, t *tally) *simRunner {
	return &simRunner{w: w, seed: seed, first: map[hybridvc.Organization]string{}, tally: t}
}

// orgResult is one checked org run.
type orgResult struct {
	rep           sim.Report
	setup         time.Duration
	wall, ran     time.Duration
	refs, batches uint64 // from the AccessBatch wrapper; traced runs only
}

// traceID names the trace of one org run of this workload.
func (s *simRunner) traceID(org hybridvc.Organization) string {
	return fmt.Sprintf("sim/%s/%s", s.w.app, org)
}

// runOrg builds, runs and checks one org run. Every org run is one
// attempted operation; it fails on a build error, a bad report, or a
// report that differs from the first run of the same org and seed.
func (s *simRunner) runOrg(org hybridvc.Organization, tr *tracer) (orgResult, bool) {
	trace := s.traceID(org)
	r, err := s.w.build(org, s.seed, tr, trace)
	if err != nil {
		s.tally.fail(err)
		return orgResult{}, false
	}
	rep, wall, ran := s.w.run(r, tr, trace)
	if h := liveHeap(); h > s.maxHeap {
		s.maxHeap = h
	}
	runtime.KeepAlive(r)
	if err := s.w.check(rep); err != nil {
		s.tally.fail(err)
		return orgResult{}, false
	}
	js := rep.JSON()
	if ref, ok := s.first[org]; !ok {
		s.first[org] = js
	} else if js != ref {
		s.tally.fail(fmt.Errorf("%s: report differs between two runs with seed %d", org, s.seed))
		return orgResult{}, false
	}
	s.tally.ok()
	res := orgResult{rep: rep, setup: r.setup, wall: wall, ran: ran}
	if r.tm != nil {
		res.refs, res.batches = r.tm.refs, r.tm.batches
	}
	return res, true
}

// roundResult is one round of org runs.
type roundResult struct {
	// insns counts instructions retired on all cores; wall and ran are
	// the summed Run wall seconds, raw and steal-free (see stopwatch),
	// and setup the summed set-up seconds.
	insns            float64
	wall, ran, setup float64
	orgs             []orgResult
}

// rate is the round's simulator throughput on steal-free time.
func (rr roundResult) rate() float64 { return rr.insns / rr.ran }

// jobRate is the round's org runs, set-up included, per second.
func (rr roundResult) jobRate() float64 { return float64(len(rr.orgs)) / (rr.setup + rr.ran) }

func (rr *roundResult) add(o roundResult) {
	rr.insns += o.insns
	rr.wall += o.wall
	rr.ran += o.ran
	rr.setup += o.setup
	rr.orgs = append(rr.orgs, o.orgs...)
}

// round runs every org once.
func (s *simRunner) round(tr *tracer) roundResult {
	var rr roundResult
	for _, org := range s.w.orgs {
		r, ok := s.runOrg(org, tr)
		if !ok {
			continue
		}
		rr.add(roundResult{
			insns: float64(r.rep.Instructions),
			wall:  r.wall.Seconds(), ran: r.ran.Seconds(), setup: r.setup.Seconds(),
			orgs: []orgResult{r},
		})
	}
	return rr
}

// setupSample builds every org once without running it and returns the
// summed set-up seconds.
func (s *simRunner) setupSample() (float64, error) {
	var sum float64
	for _, org := range s.w.orgs {
		r, err := s.w.build(org, s.seed, nil, "")
		if err != nil {
			return 0, err
		}
		sum += r.setup.Seconds()
	}
	return sum, nil
}

// measure is the untraced run: rounds of long org runs until the time
// budget is spent (at least one round), each after a few timed set-ups.
// Spread over the run, the set-ups give a setup_s that reflects the whole
// run rather than the state the host was in during its first second.
func (s *simRunner) measure(budget time.Duration, m *metricSet) error {
	deadline := time.Now().Add(budget)
	var setups, rates, jobRates []float64
	var setupWall, setupRan time.Duration
	var total roundResult
	for len(rates) == 0 || time.Now().Before(deadline) {
		sw := startWatch()
		for i := 0; i < s.w.setups; i++ {
			v, err := s.setupSample()
			if err != nil {
				return err
			}
			setups = append(setups, v)
		}
		wall, ran := sw.stop()
		setupWall += wall
		setupRan += ran
		rr := s.round(nil)
		if len(rr.orgs) != len(s.w.orgs) {
			break // a failed org run is already tallied; stop measuring
		}
		rates = append(rates, rr.rate())
		jobRates = append(jobRates, rr.jobRate())
		total.add(rr)
	}
	if len(rates) == 0 {
		return fmt.Errorf("the first round failed its checks")
	}
	m.set("setup_s", "s", median(setups)*setupRan.Seconds()/setupWall.Seconds(), fmt.Sprintf(
		"median of %d set-ups of %d orgs, spread %.3f, scaled by the set-ups' steal-free share %.3f",
		len(setups), len(s.w.orgs), spread(setups), setupRan.Seconds()/setupWall.Seconds()))
	// The throughputs are medians over rounds: a neighbour's burst that
	// slows one round does not move them.
	m.set("sim_insn_per_s", "insn/s", median(rates), fmt.Sprintf(
		"median of %d rounds of %d org runs x %d insn x %d cores, round-to-round spread %.3f; %.0f over all rounds on raw wall time",
		len(rates), len(s.w.orgs), s.w.insns, s.w.cores, spread(rates), total.insns/total.wall))
	m.set("jobs_per_s", "1/s", median(jobRates), fmt.Sprintf(
		"median of %d rounds; %d org runs over %.2f s of set-up and steal-free Run time in all",
		len(jobRates), len(total.orgs), total.setup+total.ran))
	m.set("peak_heap_mb", "MiB", float64(s.maxHeap)/(1<<20), "live heap after GC at the end of each org run, max")
	m.set("ok_ratio", "ratio", s.tally.ratio(), fmt.Sprintf("%d of %d org runs passed the checks", s.tally.passed, s.tally.attempted))
	return nil
}

// traced is the traced run: one untraced round (the overhead reference),
// the layer pass, and a service leg that serves the same org runs
// through an in-process hvcd. dir is scratch space for the daemon.
func (s *simRunner) traced(tr *tracer, m *metricSet, dir string) error {
	plain := s.round(nil)
	if len(plain.orgs) != len(s.w.orgs) {
		return fmt.Errorf("org runs failed; see the check failures")
	}
	acc := newLayerAcc()
	traced, err := s.layers(tr, acc)
	if err != nil {
		return err
	}
	if err := acc.report(m); err != nil {
		return err
	}
	m.set("trace.overhead_insn_per_s", "insn/s", traced.rate()-plain.rate(),
		fmt.Sprintf("traced %.0f - untraced %.0f", traced.rate(), plain.rate()))
	m.set("trace.overhead_jobs_per_s", "1/s", traced.jobRate()-plain.jobRate(),
		fmt.Sprintf("traced %.4f - untraced %.4f", traced.jobRate(), plain.jobRate()))
	return s.serviceLeg(tr, m, dir)
}

// roleAcc sums the layer measurements of the org runs of one role.
type roleAcc struct {
	runs                                  float64
	newNs, loadNs, runNs, selfNs, batchNs int64
	insns, refs, batches                  float64
	ipc                                   float64 // summed over runs
	counts                                map[string]float64
}

// modelCounts are the model.* metrics other than model.ipc, in order.
var modelCounts = []string{
	"cycles", "filter_candidates", "false_positives", "tlb_lookups", "tlb_hits",
	"walks", "walk_steps", "delayed", "llc_misses", "faults",
}

// layerAcc collects a traced pass's layer measurements per role, plus
// the generator timing, which belongs to no organization.
type layerAcc struct {
	roles         map[string]*roleAcc
	nextNs, nextN float64
}

func newLayerAcc() *layerAcc { return &layerAcc{roles: map[string]*roleAcc{}} }

func (acc *layerAcc) role(org hybridvc.Organization) *roleAcc {
	k := role(org)
	if acc.roles[k] == nil {
		acc.roles[k] = &roleAcc{counts: map[string]float64{}}
	}
	return acc.roles[k]
}

// layers runs the layer pass of this workload into acc: a traced round,
// whose spans give the layer times; a counting-probe pass per org for
// the model counts, so the probe's own cost never enters a layer time;
// and a timed generator pass. It returns the traced round.
func (s *simRunner) layers(tr *tracer, acc *layerAcc) (roundResult, error) {
	rr := s.round(tr)
	if len(rr.orgs) != len(s.w.orgs) {
		return rr, fmt.Errorf("org runs failed; see the check failures")
	}
	for i, org := range s.w.orgs {
		r := rr.orgs[i]
		lt := tr.selfTimes(s.traceID(org))
		a := acc.role(org)
		a.runs++
		a.newNs += lt["setup.new"].total
		a.loadNs += lt["setup.load"].total
		a.runNs += lt["sim.run"].total
		a.selfNs += lt["sim.run"].self
		a.batchNs += lt["access.batch"].total
		a.insns += float64(r.rep.Instructions)
		a.refs += float64(r.refs)
		a.batches += float64(r.batches)
		if err := s.model(org, a); err != nil {
			return rr, err
		}
	}
	return rr, s.nextCost(tr, acc)
}

// report sets the per-layer metrics of every role. Times are means per
// org run (set-up) or ratios of sums (run loop, access pipeline); model
// counts are sums, model.ipc the mean over org runs.
func (acc *layerAcc) report(m *metricSet) error {
	for _, k := range roles {
		a := acc.roles[k]
		if a == nil {
			return fmt.Errorf("the traced pass ran no organization of role %s", k)
		}
		n := fmt.Sprintf("%.0f org runs", a.runs)
		m.set("setup.new_ms."+k, "ms", float64(a.newNs)/1e6/a.runs, "mean of "+n)
		m.set("setup.load_ms."+k, "ms", float64(a.loadNs)/1e6/a.runs, "mean of "+n)
		m.set("sim.insn_per_s."+k, "insn/s", a.insns/(float64(a.runNs)/1e9), n)
		m.set("sim.loop_ns_per_insn."+k, "ns", float64(a.selfNs)/a.insns,
			fmt.Sprintf("sim.run %d ns = self %d + access.batch %d", a.runNs, a.selfNs, a.batchNs))
		m.set("sim.access_share."+k, "ratio", float64(a.batchNs)/float64(a.runNs), "")
		m.set("access.ns_per_ref."+k, "ns", float64(a.batchNs)/a.refs, "")
		m.set("access.refs."+k, "count", a.refs, "")
		m.set("access.batches."+k, "count", a.batches, "")
		m.set("model.ipc."+k, "insn/cycle", a.ipc/a.runs, "mean of "+n)
		for _, c := range modelCounts {
			m.set("model."+c+"."+k, "count", a.counts[c], "")
		}
	}
	m.set("workload.next_ns_per_insn", "ns", acc.nextNs/acc.nextN,
		fmt.Sprintf("%.0f Next calls", acc.nextN))
	return nil
}

// model runs the org once more with a counting probe attached and adds
// its deterministic event counts to a. The probe run must reproduce the
// first report of the org byte for byte.
func (s *simRunner) model(org hybridvc.Organization, a *roleAcc) error {
	r, err := s.w.build(org, s.seed, nil, "")
	if err != nil {
		return err
	}
	var p core.CountingProbe
	r.sys.Mem.SetProbe(&p)
	rep, _, _ := s.w.run(r, nil, "")
	if rep.JSON() != s.first[org] {
		s.tally.fail(fmt.Errorf("%s: report with a counting probe differs from the unprobed report", org))
	} else {
		s.tally.ok()
	}
	var lookups, hits uint64
	for l := range p.TLBLookups {
		lookups += p.TLBLookups[l]
		hits += p.TLBHits[l]
	}
	a.ipc += rep.IPC
	for c, v := range map[string]uint64{
		"cycles":            rep.Cycles,
		"filter_candidates": p.FilterCandidates,
		"false_positives":   p.FalsePositives,
		"tlb_lookups":       lookups,
		"tlb_hits":          hits,
		"walks":             p.Walks,
		"walk_steps":        p.WalkSteps,
		"delayed":           p.DelayedDemand + p.DelayedWritebacks,
		"llc_misses":        p.LLCMisses,
		"faults":            p.Faults,
	} {
		a.counts[c] += float64(v)
	}
	return nil
}

// nextCost times the workload generators alone: a fresh, same-seeded
// group (built as for the first org) stepped as many times as one org
// run retires instructions, round-robin over its processes.
func (s *simRunner) nextCost(tr *tracer, acc *layerAcc) error {
	r, err := s.w.build(s.w.orgs[0], s.seed, nil, "")
	if err != nil {
		return err
	}
	gens := r.sys.Generators()
	n := s.w.insns * uint64(s.w.cores)
	runtime.GC()
	t := time.Now()
	for i := uint64(0); i < n; i++ {
		gens[i%uint64(len(gens))].Next()
	}
	end := time.Now()
	tr.add("workload/"+s.w.app, 0, "workload.next", t, end)
	acc.nextNs += float64(end.Sub(t))
	acc.nextN += float64(n)
	return nil
}
