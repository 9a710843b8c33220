package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSKiB is this process's ru_maxrss (KiB on Linux).
func selfPeakRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// procCPU is the CPU time a live child has used: the run time of each of its
// threads, which /proc/<pid>/task/<tid>/schedstat gives in nanoseconds.
// (/proc/<pid>/stat counts in 10 ms ticks, too coarse for a slice of the
// timed phase, and a subprocess's rusage is only available once it has
// exited.)
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited since the listing
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procPeakRSSKiB is a live child's VmHWM, the same quantity as ru_maxrss.
func procPeakRSSKiB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance rule for this benchmark is stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return q(1), q(2), q(3)
}

// phaseSlices is how many equal slices (by op count) a timed phase is cut
// into; sim-sweep, whose unit of repeated work is a pass, has one per pass.
const phaseSlices = 40

// mark is the state of the timed phase at a slice boundary.
type mark struct {
	t   time.Time
	cpu time.Duration // CPU clock of the program under test
	ops int64         // ops completed by every client together
}

// lowDecile is the value a tenth of the way up the sorted slice values.
//
// Every timing this benchmark reports is taken per slice of the timed phase
// and then reduced with this, not with a mean or a median over the whole
// phase. The reference runner shares its host: other tenants only ever add
// time, in bursts of tenths of a second to several seconds, and a run in
// which more than half the slices were disturbed is common. The low slices
// are the ones that measured the program rather than the neighbours. Over
// six runs in a noisy quarter of an hour, routed-get's whole-phase ops/s
// spread by 10 %, the median of its slices by 2 % and their low decile by
// 0.5 %; served-pipeline's p99 by 20 %, 18 % and 13 %. The minimum is
// not used: a slice in which one of two clients had already finished, or
// with few samples, can be faster than the program ever is.
func lowDecile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(0.1*float64(len(s)-1)+0.5)]
}

// sliceCosts returns, per slice between consecutive marks, the wall time and
// the CPU time of one op, in µs.
func sliceCosts(marks []mark) (wall, cpu []float64) {
	for i := 1; i < len(marks); i++ {
		n := float64(marks[i].ops - marks[i-1].ops)
		if n <= 0 {
			continue
		}
		wall = append(wall, float64(marks[i].t.Sub(marks[i-1].t).Nanoseconds())/1e3/n)
		cpu = append(cpu, float64((marks[i].cpu-marks[i-1].cpu).Nanoseconds())/1e3/n)
	}
	return wall, cpu
}

// slicePercentile cuts each client's samples (in arrival order) into slices
// equal slices, takes percentile p of each slice across clients, and returns
// the low decile of those.
func slicePercentile(clients [][]float32, slices int, p float64) float64 {
	var per []float64
	var buf []float64
	for s := 0; s < slices; s++ {
		buf = buf[:0]
		for _, c := range clients {
			lo, hi := s*len(c)/slices, (s+1)*len(c)/slices
			for _, x := range c[lo:hi] {
				buf = append(buf, float64(x))
			}
		}
		if len(buf) == 0 {
			continue
		}
		sort.Float64s(buf)
		per = append(per, percentile(buf, p))
	}
	return lowDecile(per)
}

func totalSamples(clients [][]float32) int {
	n := 0
	for _, c := range clients {
		n += len(c)
	}
	return n
}
