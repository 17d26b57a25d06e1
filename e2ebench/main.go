// Command e2ebench is the repository's end-to-end benchmark: long
// in-process simulator runs (sim-native, sim-virt-synonym-2core) and an
// in-process hvcd daemon under a closed-loop traffic mix (svc-mixed).
//
//	bash e2ebench/run.sh --workload sim-native --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the separate traced pass and prints the per-layer metrics, writing its
// spans to a JSON-lines file under --workdir. The last line of standard
// output is the JSON result; the lines before it repeat every metric with
// its sample count. See README.md for the metric table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// tally counts the output checks: every attempted operation either
// passes all its checks or is a failure.
type tally struct {
	mu        sync.Mutex
	attempted int
	passed    int
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.passed++
	t.mu.Unlock()
}

func (t *tally) fail(err error) {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	fmt.Fprintln(os.Stderr, "e2ebench: check failed:", err)
}

func (t *tally) ratio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.passed) / float64(t.attempted)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sim-native, sim-virt-synonym-2core or svc-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 30, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/e2ebench/work", "scratch directory for the result store and span files")
	flag.Parse()
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}
	if _, ok := simWorkloads[o.workload]; !ok && o.workload != svcWorkloadName {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want sim-native, sim-virt-synonym-2core or svc-mixed)\n", o.workload)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation and prints the human-readable lines.
func run(o options) (result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, err
	}
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	m := newMetricSet()
	var t tally
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	budget := time.Duration(o.seconds) * time.Second
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	if w, ok := simWorkloads[o.workload]; ok {
		s := newSimRunner(w, o.seed, &t)
		if o.trace {
			err = s.traced(tr, m, dir)
		} else {
			err = s.measure(budget, m)
		}
	} else {
		sv := newSvcRunner(defaultSvcMix, o.seed, dir, &t)
		if o.trace {
			err = sv.traced(budget, tr, m)
		} else {
			err = sv.measure(budget, m)
		}
	}
	if err != nil {
		return result{}, err
	}
	if o.trace {
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Printf("# spans: %s (%d spans)\n", path, len(tr.spans))
	}
	printMetrics(m)
	res := result{
		Attempted: t.attempted,
		Failed:    t.attempted - t.passed,
		Metrics:   m.vals,
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func printMetrics(m *metricSet) {
	names := append([]string(nil), m.order...)
	sort.Strings(names)
	for _, n := range names {
		v := m.vals[n]
		line := fmt.Sprintf("%-40s %16.6g %s", n, v.Value, v.Unit)
		if note := m.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Println(line)
	}
}
