package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridvc"
	"hybridvc/internal/service"
	"hybridvc/internal/service/client"
	"hybridvc/internal/sim"
)

const svcWorkloadName = "svc-mixed"

// svcMix describes the svc-mixed traffic. The run is a series of daemon
// lives on one store directory: each life starts an in-process hvcd,
// drives opsPerLife operations through it from closed-loop clients, and
// drains it. Keys simulated in an earlier life come back as disk hits.
type svcMix struct {
	orgs []hybridvc.Organization
	apps []string
	// insns is the instruction count of every fresh sim job.
	insns uint64
	// sweeps are quick registry experiments; life i submits sweeps[i%n].
	sweeps     []string
	opsPerLife int
	// starts is how many timed daemon starts make up setup_s.
	starts int
	// cacheEntries sizes the memory LRU below the key population.
	cacheEntries int
	clients      int
}

var defaultSvcMix = svcMix{
	orgs: []hybridvc.Organization{
		hybridvc.Baseline, hybridvc.HybridManySegSC, hybridvc.RLTVC,
		hybridvc.Virt2D, hybridvc.VirtHybrid,
	},
	apps:         []string{"gups", "mcf", "postgres", "memcached"},
	insns:        30_000,
	sweeps:       []string{"latency", "table1"},
	opsPerLife:   72,
	starts:       301,
	cacheEntries: 16,
	clients:      min(2, runtime.NumCPU()),
}

// freshCopies is how many fresh sim jobs of the (org, app) pair each life
// submits. Virtualized set-up and memcached's 640 regions make those jobs
// two to three times slower than the rest, so they appear once and the
// others three times: the slow pairs make a quarter of the fresh jobs
// rather than dominate them. memcached does not fit the default 4 GiB
// guest of the virtualized organizations, so that pairing is left out.
func freshCopies(org hybridvc.Organization, app string) int {
	switch {
	case org.Virtualized() && app == "memcached":
		return 0
	case org.Virtualized() || app == "memcached":
		return 1
	}
	return 3
}

// Operation kinds.
const (
	opFresh = iota
	opRepeat
	opSweep
)

type svcOp struct {
	kind int
	spec service.JobSpec
}

// svcResult is one completed operation as the client saw it.
type svcResult struct {
	op            svcOp
	class         string // fresh, memory, disk or dedup
	total         time.Duration
	submit, fetch time.Duration
	queue, exec   time.Duration // fresh jobs only, from wire timestamps
	start, end    time.Time
	// scale is the steal-free share of the life's traffic wall time (see
	// stopwatch). Durations are reported multiplied by it: steal cannot
	// be attributed to one request, but spread over a life it slows every
	// request in proportion.
	scale float64
}

// ms reports a duration of this operation in steal-free milliseconds.
func (r svcResult) ms(d time.Duration) float64 { return ms(d.Seconds() * r.scale) }

type svcRunner struct {
	mix   svcMix
	seed  int64
	dir   string
	tally *tally

	nextSeed int64
	prev     []service.JobSpec // fresh sim specs of earlier lives

	refMu sync.Mutex
	refs  map[string][]byte // result bytes of each key, as first fetched

}

func newSvcRunner(mix svcMix, seed int64, dir string, t *tally) *svcRunner {
	return &svcRunner{
		mix: mix, seed: seed, dir: dir, tally: t,
		nextSeed: seed*1_000_000 + 1,
		refs:     map[string][]byte{},
	}
}

// daemon is one in-process hvcd behind a loopback listener.
type daemon struct {
	srv *service.Server
	hs  *httptest.Server
	c   *client.Client
}

// start constructs a daemon on storeDir and returns once /readyz answers
// ready, with the elapsed time.
func (sv *svcRunner) start(storeDir string) (*daemon, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	srv, err := service.New(service.Config{
		Workers:      runtime.NumCPU(),
		CacheEntries: sv.mix.cacheEntries,
		StoreDir:     storeDir,
		SpoolDir:     filepath.Join(sv.dir, "spool"),
		JobTimeout:   time.Minute,
	})
	if err != nil {
		return nil, 0, err
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	d := &daemon{srv: srv, hs: hs, c: client.New(hs.URL, hs.Client())}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := d.c.Ready(ctx)
	if err == nil && r.Status != "ready" {
		err = fmt.Errorf("daemon not ready: %s", r.Status)
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.hs.Close()
	return err
}

// plan generates one life's operations from the seed: every (org, app)
// pair blocks times as a fresh sim job, one sweep, and repeats of keys
// submitted earlier in this life (dedup or memory hits) or in an earlier
// life (disk hits on their first repeat).
func (sv *svcRunner) plan(life int) []svcOp {
	rng := rand.New(rand.NewSource(sv.seed*7919 + int64(life)))
	var fresh []service.JobSpec
	for _, org := range sv.mix.orgs {
		for _, app := range sv.mix.apps {
			for i := 0; i < freshCopies(org, app); i++ {
				fresh = append(fresh, service.JobSpec{
					Org: string(org), Workloads: []string{app},
					Instructions: sv.mix.insns, Cores: 1, Seed: sv.nextSeed,
				})
				sv.nextSeed++
			}
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	kinds := make([]int, sv.mix.opsPerLife)
	for i := range kinds {
		switch {
		case i < len(fresh):
			kinds[i] = opFresh
		case i == len(fresh):
			kinds[i] = opSweep
		default:
			kinds[i] = opRepeat
		}
	}
	rng.Shuffle(len(kinds)-1, func(i, j int) { kinds[i+1], kinds[j+1] = kinds[j+1], kinds[i+1] })

	ops := make([]svcOp, 0, len(kinds))
	var issued []service.JobSpec
	for _, k := range kinds {
		switch k {
		case opFresh:
			issued = append(issued, fresh[0])
			ops = append(ops, svcOp{kind: opFresh, spec: fresh[0]})
			fresh = fresh[1:]
		case opSweep:
			ops = append(ops, svcOp{kind: opSweep, spec: service.JobSpec{
				Kind: service.KindSweep, Experiment: sv.mix.sweeps[life%len(sv.mix.sweeps)],
			}})
		case opRepeat:
			var spec service.JobSpec
			if len(sv.prev) > 0 && rng.Intn(2) == 0 {
				spec = sv.prev[rng.Intn(len(sv.prev))]
			} else {
				recent := issued[max(0, len(issued)-4):]
				spec = recent[rng.Intn(len(recent))]
			}
			ops = append(ops, svcOp{kind: opRepeat, spec: spec})
		}
	}
	sv.prev = append(sv.prev, issued...)
	return ops
}

// do runs one operation: submit, wait on the job handle, fetch. The
// result is checked against the first result fetched for the same key.
func (sv *svcRunner) do(ctx context.Context, d *daemon, op svcOp, tr *tracer, trace string) (svcResult, error) {
	r := svcResult{op: op, start: time.Now()}
	resp, err := d.c.Submit(ctx, op.spec)
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	submitted := time.Now()
	job, ok := d.srv.Job(resp.ID)
	if !ok {
		return r, fmt.Errorf("job %s unknown to the daemon", resp.ID)
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		return r, fmt.Errorf("job %s: %w", resp.ID, ctx.Err())
	}
	waited := time.Now()
	st, err := d.c.Job(ctx, resp.ID)
	if err != nil {
		return r, fmt.Errorf("fetch %s: %w", resp.ID, err)
	}
	r.end = time.Now()
	r.total, r.submit, r.fetch = r.end.Sub(r.start), submitted.Sub(r.start), r.end.Sub(waited)
	switch {
	case resp.Deduped:
		r.class = "dedup"
	case resp.Cached && st.Provenance == "disk":
		r.class = "disk"
	case resp.Cached:
		r.class = "memory"
	default:
		r.class = "fresh"
		if st.Started != nil && st.Finished != nil {
			r.queue, r.exec = st.Started.Sub(st.Created), st.Finished.Sub(*st.Started)
			tr.add(trace, 0, "svc.queue", st.Created, *st.Started)
			tr.add(trace, 0, "svc.exec", *st.Started, *st.Finished)
		}
	}
	tr.add(trace, 0, "svc.submit", r.start, submitted)
	tr.add(trace, 0, "svc.fetch", waited, r.end)
	return r, sv.check(op, st)
}

// check is the per-operation output check: the job is done, a sim report
// passes the sim checks, and the result bytes equal the first result
// fetched for the key (hits read what the fresh job wrote).
func (sv *svcRunner) check(op svcOp, st service.JobStatus) error {
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	got := []byte(strings.Join(st.Tables, "\x00"))
	if op.spec.Kind != service.KindSweep {
		var rep sim.Report
		if err := json.Unmarshal(st.Report, &rep); err != nil {
			return fmt.Errorf("job %s: report: %w", st.ID, err)
		}
		w := simWorkload{insns: op.spec.Instructions, cores: op.spec.Cores}
		if err := w.check(rep); err != nil {
			return fmt.Errorf("job %s: %w", st.ID, err)
		}
		got = st.Report
	} else if len(st.Tables) == 0 {
		return fmt.Errorf("job %s: sweep returned no tables", st.ID)
	}
	sv.refMu.Lock()
	defer sv.refMu.Unlock()
	ref, ok := sv.refs[st.Key]
	if !ok {
		// Within a life a repeat may reach the daemon before the fresh
		// submission it repeats, so the first result fetched is the
		// reference; a disk hit must find one from an earlier life.
		if st.Provenance == "disk" {
			return fmt.Errorf("job %s: disk hit for key %.12s that no earlier life fetched", st.ID, st.Key)
		}
		sv.refs[st.Key] = append([]byte(nil), got...)
		return nil
	}
	if !bytes.Equal(ref, got) {
		return fmt.Errorf("job %s: result for key %.12s differs from the fresh result", st.ID, st.Key)
	}
	return nil
}

// lifeStats accumulates what the lives of one pass report.
type lifeStats struct {
	results []svcResult
	// traffic is the lives' summed traffic time, wall less steal (see
	// stopwatch); trafficWall is the raw wall time.
	traffic, trafficWall time.Duration
	// peaks holds each life's peak live heap in bytes.
	peaks  []float64
	snap   service.MetricsSnapshot
	stores struct{ hits, writes uint64 }
}

// life starts a daemon, drives ops through it from closed-loop clients,
// checks its counters and drains it.
func (sv *svcRunner) life(idx int, ops []svcOp, tr *tracer, ls *lifeStats) error {
	d, _, err := sv.start(filepath.Join(sv.dir, "store"))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	first := len(ls.results)
	stopSampler, peak := sampleLiveHeap()
	sw := startWatch()
	for c := 0; c < sv.mix.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				r, err := sv.do(ctx, d, ops[i], tr, fmt.Sprintf("svc/%d/%d", idx, i))
				if err != nil {
					sv.tally.fail(err)
					continue
				}
				sv.tally.ok()
				mu.Lock()
				ls.results = append(ls.results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall, ran := sw.stop()
	stopSampler()
	ls.trafficWall += wall
	ls.traffic += ran
	ls.peaks = append(ls.peaks, float64(*peak))
	for i := range ls.results[first:] {
		ls.results[first+i].scale = ran.Seconds() / wall.Seconds()
	}
	snap := d.srv.MetricsSnapshot()
	if snap.Failed != 0 {
		sv.tally.fail(fmt.Errorf("life %d: daemon reports %d failed jobs", idx, snap.Failed))
	} else {
		sv.tally.ok()
	}
	ls.snap.Submitted += snap.Submitted
	ls.snap.Simulated += snap.Simulated
	ls.snap.Sweeps += snap.Sweeps
	ls.snap.Deduped += snap.Deduped
	ls.snap.CacheHits += snap.CacheHits
	if snap.Store != nil {
		ls.stores.hits += snap.Store.Hits
		ls.stores.writes += snap.Store.Writes
	}
	return d.stop()
}

// sampleLiveHeap polls the live heap the runtime measured at its last
// collection until stop is called, recording the largest value. The
// daemon's heap peaks while fresh simulations hold their systems, which
// an end-of-life measurement would miss. stop returns once the poller
// has exited, so the peak is safe to read after it.
func sampleLiveHeap() (stop func(), peak *uint64) {
	peak = new(uint64)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			*peak = max(*peak, sample[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); <-exited }, peak
}

// minLives is the fewest daemon lives a pass runs, whatever its budget:
// disk hits need a second life.
const minLives = 2

// pass runs daemon lives until the budget is spent.
func (sv *svcRunner) pass(budget time.Duration, tr *tracer) (*lifeStats, error) {
	ls := &lifeStats{}
	deadline := time.Now().Add(budget)
	for i := 0; i < minLives || time.Now().Before(deadline); i++ {
		if err := sv.life(i, sv.plan(i), tr, ls); err != nil {
			return nil, err
		}
	}
	return ls, nil
}

// setupSamples times daemon starts on an empty store directory.
func (sv *svcRunner) setupSamples() ([]float64, error) {
	var out []float64
	for i := 0; i < sv.mix.starts; i++ {
		d, dur, err := sv.start(filepath.Join(sv.dir, "setup-store"))
		if err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		out = append(out, dur.Seconds())
	}
	return out, nil
}

func (ls *lifeStats) jobsPerSec() float64 {
	return float64(len(ls.results)) / ls.traffic.Seconds()
}

// simRate is the simulator throughput the daemon delivered: instructions
// of the fresh sim jobs over their summed steal-free execution time
// (Started to Finished, set-up included).
func (ls *lifeStats) simRate() float64 {
	var insns, secs float64
	for _, r := range ls.results {
		if r.class == "fresh" && r.op.kind != opSweep {
			insns += float64(r.op.spec.Instructions * uint64(r.op.spec.Cores))
			secs += r.exec.Seconds() * r.scale
		}
	}
	return insns / secs
}

// measure is the untraced run.
func (sv *svcRunner) measure(budget time.Duration, m *metricSet) error {
	t0 := time.Now()
	setups, err := sv.setupSamples()
	if err != nil {
		return err
	}
	ls, err := sv.pass(budget-time.Since(t0), nil)
	if err != nil {
		return err
	}
	// Unlike the other times, setup_s is not scaled for steal: the starts
	// take a fraction of a second in all, too few /proc/stat ticks to
	// estimate their steal, and the median of many starts already skips
	// the few a steal interrupts.
	m.set("setup_s", "s", median(setups), fmt.Sprintf("median of %d daemon starts, spread %.3f", len(setups), spread(setups)))
	m.set("peak_heap_mb", "MiB", median(ls.peaks)/(1<<20), fmt.Sprintf(
		"peak live heap during a life's traffic, median of %d lives", len(ls.peaks)))
	m.set("ok_ratio", "ratio", sv.tally.ratio(), fmt.Sprintf("%d of %d checks passed", sv.tally.passed, sv.tally.attempted))
	m.set("jobs_per_s", "1/s", ls.jobsPerSec(), fmt.Sprintf("%d operations over %.2f s of closed-loop traffic (%.2f s wall), %d clients",
		len(ls.results), ls.traffic.Seconds(), ls.trafficWall.Seconds(), sv.mix.clients))
	m.set("sim_insn_per_s", "insn/s", ls.simRate(), "fresh sim jobs' instructions over their steal-free execution time")
	return nil
}

// traced runs an untraced half (the overhead reference) and a traced half
// of daemon lives, and reports the svc.* metrics of the traced half. The
// untraced half runs on a store of its own, so the traced half starts
// from an empty store. The other layers come from a layer pass over one
// in-process run of every (org, app) pair the mix submits fresh, as a
// fresh job runs it inside the daemon.
func (sv *svcRunner) traced(budget time.Duration, tr *tracer, m *metricSet) error {
	plain, err := newSvcRunner(sv.mix, sv.seed, filepath.Join(sv.dir, "untraced"), sv.tally).pass(budget/2, nil)
	if err != nil {
		return err
	}
	ls, err := sv.pass(budget/2, tr)
	if err != nil {
		return err
	}
	svcLayer(ls, m)
	m.set("trace.overhead_jobs_per_s", "1/s", ls.jobsPerSec()-plain.jobsPerSec(),
		fmt.Sprintf("traced %.2f - untraced %.2f", ls.jobsPerSec(), plain.jobsPerSec()))
	m.set("trace.overhead_insn_per_s", "insn/s", ls.simRate()-plain.simRate(),
		fmt.Sprintf("traced %.0f - untraced %.0f", ls.simRate(), plain.simRate()))
	acc := newLayerAcc()
	for _, app := range sv.mix.apps {
		w := simWorkload{app: app, cores: 1, insns: sv.mix.insns}
		for _, org := range sv.mix.orgs {
			if freshCopies(org, app) > 0 {
				w.orgs = append(w.orgs, org)
			}
		}
		if _, err := newSimRunner(w, sv.seed, sv.tally).layers(tr, acc); err != nil {
			return err
		}
	}
	return acc.report(m)
}

// svcLayer sets the svc.* metrics of a traced pass's lives.
func svcLayer(ls *lifeStats, m *metricSet) {
	var submit, fetch, queue, execSim []float64
	var served int
	for _, r := range ls.results {
		submit = append(submit, r.ms(r.submit))
		fetch = append(fetch, r.ms(r.fetch))
		switch {
		case r.class != "fresh":
			served++
		case r.op.kind == opSweep:
			queue = append(queue, r.ms(r.queue))
		default:
			queue = append(queue, r.ms(r.queue))
			execSim = append(execSim, r.ms(r.exec))
		}
	}
	n := func(xs []float64) string { return fmt.Sprintf("median of %d", len(xs)) }
	m.set("svc.submit_ms", "ms", median(submit), n(submit))
	m.set("svc.fetch_ms", "ms", median(fetch), n(fetch))
	m.set("svc.queue_wait_ms", "ms", median(queue), n(queue))
	m.set("svc.exec_ms.sim", "ms", median(execSim), n(execSim))
	m.set("svc.hit_ratio", "ratio", float64(served)/float64(len(ls.results)),
		fmt.Sprintf("(memory + disk hits + deduped) / %d submitted", len(ls.results)))
	m.set("svc.simulated", "count", float64(ls.snap.Simulated), "")
	m.set("svc.deduped", "count", float64(ls.snap.Deduped), "")
	m.set("svc.cache_hits", "count", float64(ls.snap.CacheHits), "")
	m.set("svc.store_hits", "count", float64(ls.stores.hits), "")
	m.set("svc.store_writes", "count", float64(ls.stores.writes), "")
}

// serviceLeg serves this workload's org runs through an in-process hvcd
// from one client, each once fresh and once more as a memory hit, and
// sets the svc.* metrics for them: what the daemon adds around a long
// run. dir is the daemon's scratch space.
func (s *simRunner) serviceLeg(tr *tracer, m *metricSet, dir string) error {
	mix := defaultSvcMix
	mix.clients = 1
	sv := newSvcRunner(mix, s.seed, dir, s.tally)
	var ops []svcOp
	for _, org := range s.w.orgs {
		spec := service.JobSpec{
			Org: string(org), Workloads: []string{s.w.app},
			Instructions: s.w.insns, Cores: s.w.cores, Seed: s.seed,
		}
		ops = append(ops, svcOp{kind: opFresh, spec: spec}, svcOp{kind: opRepeat, spec: spec})
	}
	ls := &lifeStats{}
	if err := sv.life(0, ops, tr, ls); err != nil {
		return err
	}
	svcLayer(ls, m)
	return nil
}
