package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"hybridvc"
)

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := spread([]float64{4, 1, 2}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, n := range []string{"setup_s", "access.ns_per_ref.vc", "svc.exec_ms.sim", "9lives"} {
		if !validName.MatchString(n) {
			t.Errorf("%q rejected", n)
		}
	}
	for _, n := range []string{"", "a+b", ".lead", "sp ace", strings.Repeat("x", 65)} {
		if validName.MatchString(n) {
			t.Errorf("%q accepted", n)
		}
	}
	e2e, layer := declared(t)
	for _, names := range []map[string]string{e2e, layer} {
		for n := range names {
			if !validName.MatchString(n) {
				t.Errorf("BENCHMARK.json declares invalid metric name %q", n)
			}
		}
	}
}

// TestEveryWorkloadCoversEveryRole: the per-layer metrics are per role,
// so a workload without an organization of some role could not report
// them.
func TestEveryWorkloadCoversEveryRole(t *testing.T) {
	if got := role(hybridvc.HybridManySegSC); got != "vc" {
		t.Errorf("role(hybrid-manyseg+sc) = %q", got)
	}
	if got := role(hybridvc.Virt2D); got != "base" {
		t.Errorf("role(virt-2d) = %q", got)
	}
	covers := func(name string, orgs []hybridvc.Organization) {
		seen := map[string]bool{}
		for _, o := range orgs {
			seen[role(o)] = true
		}
		for _, r := range roles {
			if !seen[r] {
				t.Errorf("%s runs no organization of role %s", name, r)
			}
		}
	}
	for name, w := range simWorkloads {
		covers(name, w.orgs)
	}
	covers(svcWorkloadName, defaultSvcMix.orgs)
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// checkMetrics asserts that the run reported exactly the declared
// metrics, each with the unit BENCHMARK.json gives it, and passed every
// output check.
func checkMetrics(t *testing.T, m *metricSet, tl *tally, declared map[string]string) {
	t.Helper()
	if tl.attempted == 0 || tl.passed != tl.attempted {
		t.Errorf("%d of %d checks passed", tl.passed, tl.attempted)
	}
	for n, unit := range declared {
		got, ok := m.vals[n]
		switch {
		case !ok:
			t.Errorf("metric %s missing", n)
		case got.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", n, got.Unit, unit)
		}
	}
	if len(m.vals) != len(declared) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d: %v", len(m.vals), len(declared), m.order)
	}
}

// tiny shrinks a sim workload to a smoke-test size.
func tiny(name string) simWorkload {
	w := simWorkloads[name]
	w.insns, w.setups = 20_000, 1
	return w
}

func TestSimWorkloadsSmoke(t *testing.T) {
	e2e, layer := declared(t)
	for _, name := range []string{"sim-native", "sim-virt-synonym-2core"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(name)
			var tl tally
			m := newMetricSet()
			if err := newSimRunner(w, 3, &tl).measure(0, m); err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, m, &tl, e2e)

			runTraced := func() (*metricSet, *tracer, *simRunner) {
				var tl tally
				m, tr := newMetricSet(), newTracer()
				s := newSimRunner(w, 3, &tl)
				if err := s.traced(tr, m, t.TempDir()); err != nil {
					t.Fatal(err)
				}
				checkMetrics(t, m, &tl, layer)
				return m, tr, s
			}
			m1, tr, s := runTraced()
			for _, o := range w.orgs {
				lt := tr.selfTimes(s.traceID(o))
				run, batch := lt["sim.run"], lt["access.batch"]
				if run.count != 1 || batch.count == 0 || run.self+batch.total != run.total {
					t.Errorf("%s: sim.run %d ns != self %d + access.batch %d (%d batches)",
						o, run.total, run.self, batch.total, batch.count)
				}
			}
			m2, _, _ := runTraced()
			for _, n := range m1.order {
				if strings.HasPrefix(n, "model.") && m1.vals[n] != m2.vals[n] {
					t.Errorf("%s differs between two traced runs: %v vs %v", n, m1.vals[n], m2.vals[n])
				}
			}
			for _, n := range []string{"svc.simulated", "svc.cache_hits"} {
				if got := m1.vals[n].Value; got != float64(len(w.orgs)) {
					t.Errorf("service leg: %s = %v, want one per org", n, got)
				}
			}
		})
	}
}

func TestSvcMixedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts in-process daemons")
	}
	e2e, layer := declared(t)
	mix := defaultSvcMix
	mix.insns, mix.starts = 2_000, 3

	var tl tally
	m := newMetricSet()
	if err := newSvcRunner(mix, 5, t.TempDir(), &tl).measure(0, m); err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, m, &tl, e2e)

	tl = tally{}
	m, tr := newMetricSet(), newTracer()
	if err := newSvcRunner(mix, 5, t.TempDir(), &tl).traced(0, tr, m); err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, m, &tl, layer)
	for _, n := range []string{"svc.store_hits", "svc.simulated", "svc.deduped"} {
		if m.vals[n].Value == 0 {
			t.Errorf("%s is 0: the traced lives did not run the whole mix", n)
		}
	}
	lt := tr.selfTimes("")
	for _, n := range []string{"svc.submit", "svc.queue", "svc.exec", "svc.fetch", "sim.run", "access.batch"} {
		if lt[n].count == 0 {
			t.Errorf("no %s spans", n)
		}
	}
}
