package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"

	"hybridvc"
)

// metric is one reported number, in the shape the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics. Notes (sample counts, spreads)
// go to the human-readable lines printed before the result line.
type metricSet struct {
	vals  map[string]metric
	order []string
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]metric{}, notes: map[string]string{}}
}

// validName is the grammar every reported metric name must match.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// set records a metric, panicking on a malformed or duplicate name: names
// are built from constants and the organization catalog, so either is a
// bug in the benchmark.
func (m *metricSet) set(name, unit string, v float64, note string) {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("e2ebench: invalid metric name %q", name))
	}
	if _, dup := m.vals[name]; dup {
		panic(fmt.Sprintf("e2ebench: metric %q reported twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("e2ebench: metric %q is not finite", name))
	}
	m.vals[name] = metric{Value: v, Unit: unit}
	m.order = append(m.order, name)
	if note != "" {
		m.notes[name] = note
	}
}

// The per-layer metrics are reported per role, not per organization, so
// that every workload reports the same names. The roles follow the
// paper's comparisons: "base" is a physically addressed baseline that
// translates before the caches (baseline, virt-2d), "vc" a virtual-caching
// design that translates after them (hybrid-manyseg+sc, virt-hybrid,
// rlt-vc). Every workload runs at least one organization of each role.
var roles = []string{"base", "vc"}

func role(o hybridvc.Organization) string {
	if o == hybridvc.Baseline || o == hybridvc.Virt2D {
		return "base"
	}
	return "vc"
}

// median is the middle of a set of samples (the mean of the two middle
// values for an even count).
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

// spread is the interquartile range of xs as a share of its median, the
// same statistic the bounds in BENCHMARK.json are checked against (Python
// statistics.quantiles, n=4, exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	// quartile i of 4, transcribed from CPython's exclusive method
	// (including its extrapolation for very small n).
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// ms converts seconds to milliseconds.
func ms(seconds float64) float64 { return seconds * 1e3 }
