package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"hybridvc/internal/core"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is 0 for a root span.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the traced pass ends. A nil
// *tracer records nothing, so untraced passes share the code path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID. Start and end may be
// the caller's own clock readings or a job's wire timestamps.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// open records a span starting now whose end is not known yet, so
// children can name it as parent; close sets its end.
func (t *tracer) open(trace string, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(trace, parent, name, now, now)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count int
	total int64 // summed span durations
	self  int64 // summed durations minus the part covered by child spans
}

// selfTimes derives, per span name, the count, total and self time of
// the spans of one trace ("" for every trace): a span's self time is its
// duration minus the union of its children's intervals (clipped to the
// span).
func (t *tracer) selfTimes(trace string) map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		if trace != "" && s.Trace != trace {
			continue
		}
		d := s.End - s.Start
		lt := out[s.Name]
		lt.count++
		lt.total += d
		lt.self += d - covered(children[s.ID], s.Start, s.End)
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// timedMem wraps a memory system and records one access.batch span per
// AccessBatch call, under the sim.run span of the current org run. The
// simulator's parallel run loop hands AccessBatch calls between its
// workers through a token ring, so the counters are never written
// concurrently.
type timedMem struct {
	core.MemSystem
	tr      *tracer
	trace   string
	parent  int
	refs    uint64
	batches uint64
}

func (m *timedMem) AccessBatch(reqs []core.Request, res []core.Result) {
	start := time.Now()
	m.MemSystem.AccessBatch(reqs, res)
	m.tr.add(m.trace, m.parent, "access.batch", start, time.Now())
	m.refs += uint64(len(reqs))
	m.batches++
}
