package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the ticks the
// hypervisor stole from this machine's vCPUs, the ticks its vCPUs were
// busy or stolen, and all ticks. ok is false where /proc/stat is
// unreadable, as off Linux.
func cpuTicks() (steal, busy, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, 0, false
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return 0, 0, 0, false
		}
		total += v[i]
	}
	steal = v[7]
	busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7]
	return steal, busy, total, true
}

// stopwatch measures wall time and the part of it the measured work ran:
// wall time less what the hypervisor stole. On a shared virtual machine a
// neighbour that takes the vCPUs away would otherwise read as a slower
// program; what neighbours do to caches and memory still shows.
type stopwatch struct {
	t                  time.Time
	steal, busy, total uint64
	ok                 bool
}

func startWatch() stopwatch {
	s := stopwatch{t: time.Now()}
	s.steal, s.busy, s.total, s.ok = cpuTicks()
	return s
}

// stop returns the wall time since start and the steal-free part of it.
// A vCPU accrues steal only while it has work to run, so the steal is
// spread over the vCPUs that were busy on average during the interval (at
// least one: the caller's), not over all of them.
func (s stopwatch) stop() (wall, ran time.Duration) {
	wall = time.Since(s.t)
	steal, busy, total, ok := cpuTicks()
	if !s.ok || !ok || total <= s.total || steal <= s.steal {
		return wall, wall
	}
	busyCPUs := float64(runtime.NumCPU()) * float64(busy-s.busy) / float64(total-s.total)
	// USER_HZ is 100 on every Linux ABI Go supports.
	lost := time.Duration(float64(steal-s.steal) * float64(10*time.Millisecond) / max(1, busyCPUs))
	if lost >= wall {
		return wall, wall
	}
	return wall, wall - lost
}
