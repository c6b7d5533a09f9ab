package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeSample reads the Go runtime counters the benchmark reports.
type runtimeSample struct {
	AllocBytes uint64  // cumulative heap allocation
	GCCount    uint64  // completed GC cycles
	PauseSec   float64 // cumulative stop-the-world pause (estimated from the histogram)
}

var runtimeKeys = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.AllocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.GCCount = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			out.PauseSec += float64(n) * (lo + hi) / 2
		}
	}
	return out
}

// heapSampler polls the heap in use (live objects plus garbage not yet
// swept) every millisecond and keeps its peak: the heap memory the unit
// actually held. The live heap as marked by a collection would leave
// out garbage, but it is only observed at collections, and a unit with
// few of them (paper-full has about three) reads it at arbitrary points.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat:
// the ticks stolen by the hypervisor and the total. Stolen time stretches
// every wall-clock figure without any change in the program, so each
// run reports the share stolen during its timed units.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// unitStats accumulates the per-unit measurements of a timed loop.
type unitStats struct {
	wall        []float64 // seconds per unit
	cpu         []float64 // CPU seconds per unit
	heap        []float64 // peak heap in use (MiB) per unit
	opsMS       []float64 // per-operation latencies (ms) across all units
	steal, tick uint64    // machine-wide stolen and total CPU ticks during units
}

// measureUnit runs fn as one timed unit of work.
func (u *unitStats) measureUnit(fn func() error) error {
	hs := startHeapSampler()
	s0, k0 := cpuTicks()
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	s1, k1 := cpuTicks()
	peak := hs.Stop()
	if err == nil {
		u.wall = append(u.wall, wall)
		u.cpu = append(u.cpu, cpu)
		u.heap = append(u.heap, peak)
		u.steal += s1 - s0
		u.tick += k1 - k0
	}
	return err
}

// timedLoop repeats unit until the budget is spent: a further unit
// starts only if the median unit so far would finish within half a unit
// of the budget, and at least one unit always runs.
func timedLoop(budget time.Duration, unit func() error) (attempted, failed int) {
	start := time.Now()
	var durs []float64
	for {
		t0 := time.Now()
		attempted++
		if err := unit(); err != nil {
			failed++
			logf("unit %d failed: %v", attempted, err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		next := time.Duration(median(durs) * float64(time.Second))
		if time.Since(start)+next/2 > budget {
			return attempted, failed
		}
	}
}
