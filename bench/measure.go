package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of the
// samples, or an error when fewer than minBeyond samples lie beyond it: the
// choosing-metrics guide's "ten samples beyond" rule, under which p90 needs
// 100 samples and p99 needs 1000 (sizes.MinBeyond; the smoke size relaxes it
// to 1, its runs being too short to support a tail). The input is not
// modified.
func percentile(samples []float64, p float64, minBeyond int) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of an empty sample", p)
	}
	rank := int(math.Ceil(float64(n)*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - rank - 1; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank], nil
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for an empty sample. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of a sorted sample the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// which is what the driver computes spreads with.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b, or 0 when b is 0: a layer that was not reached reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one traced interval. Parent is the index of the span that caused
// it (-1 for an operation's root span); spans of one operation share Op.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// selfTime is the span's duration minus the part of its interval its direct
// children cover: children are clipped to the parent, overlapping children
// (PlanSessions' workers) count once, and spans of other parents are ignored.
func selfTime(spans []span, idx int) time.Duration {
	p := spans[idx]
	type iv struct{ a, b int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != idx {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	covered, end := int64(0), p.Start
	for _, k := range kids {
		if k.a > end {
			end = k.a
		}
		if k.b > end {
			covered += k.b - end
			end = k.b
		}
	}
	return time.Duration(p.End - p.Start - covered)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCounters reads the cumulative heap allocation counters without
// stopping the world (runtime.ReadMemStats would).
func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// opSample is the real-time cost of one operation.
type opSample struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	queries        int64
}

// opTimer brackets one operation with the wall clock, getrusage and the
// allocation counters.
type opTimer struct {
	t0             time.Time
	cpu0           time.Duration
	mallocs, bytes uint64
}

func startOp() opTimer {
	var t opTimer
	t.mallocs, t.bytes = allocCounters()
	t.cpu0 = cpuTime()
	t.t0 = time.Now()
	return t
}

func (t opTimer) stop(queries int64) opSample {
	wall := time.Since(t.t0)
	cpu := cpuTime() - t.cpu0
	m, b := allocCounters()
	return opSample{wall: wall, cpu: cpu, mallocs: m - t.mallocs, bytes: b - t.bytes, queries: queries}
}

// nsPerOp times fn — which performs n operations per call — repeatedly for
// about budget and returns the median nanoseconds per operation.
func nsPerOp(budget time.Duration, n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	fn() // warm caches and scratch buffers
	var reps []float64
	for start := time.Now(); len(reps) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/float64(n))
		if len(reps) >= 1000 {
			break
		}
	}
	return median(reps)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
