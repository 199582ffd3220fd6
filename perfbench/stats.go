package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is one snapshot of the cumulative quantities a phase
// differences: ops completed, time spent inside timed calls, CPU time
// of the process under test, heap allocations, and wall time.
type counters struct {
	ops     int64
	busy    time.Duration
	cpu     time.Duration
	mallocs uint64
	wall    time.Duration
}

// phase times a closed loop of calls into one entry point. The caller
// times each call and hands the latency to done; verification happens
// between calls, outside every latency and outside busy time.
type phase struct {
	start  time.Time
	length time.Duration
	lats   []time.Duration
	cur    counters
	first  counters // at the start of the phase
	last   counters // at its end
	trace  *spanLog // nil: untraced
	tid    int
}

// newPhase starts an in-process phase: CPU and allocations are this
// process's own. A non-nil tr records one span per call.
func newPhase(seconds float64, tr *spanLog) *phase {
	p := &phase{length: time.Duration(seconds * float64(time.Second)), trace: tr}
	if tr != nil {
		p.tid = tr.lane("end-to-end")
	}
	p.start = time.Now()
	p.first = p.snapshot()
	return p
}

func (p *phase) snapshot() counters {
	c := p.cur
	c.wall = time.Since(p.start)
	selfSample(&c)
	return c
}

// done records one timed call of n ops and reports whether the phase
// goes on; when it ends, done takes the closing snapshot.
func (p *phase) done(lat time.Duration, n int) bool {
	if p.trace != nil {
		p.trace.add(p.tid, len(p.lats), "op", time.Now().Add(-lat), lat)
	}
	p.lats = append(p.lats, lat)
	p.cur.ops += int64(n)
	p.cur.busy += lat
	if time.Since(p.start) < p.length {
		return true
	}
	p.last = p.snapshot()
	return false
}

// selfSample reads this process's user+system CPU and malloc count.
func selfSample(c *counters) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
}

// phaseStats is a finished phase's rate and per-op costs.
type phaseStats struct {
	opsPerS   float64 // ops per second of busy time (in process) or wall time
	cpuUSPer  float64
	allocsPer float64
}

// totals reduces the snapshots at the start and end of a phase to
// whole-phase figures: host speed on a shared machine drifts in
// stretches of seconds, and a total averages over them where a median
// of short windows would jump between them. byWall divides ops by wall
// time (a client and a daemon) instead of busy time (one in-process
// caller).
func totals(a, b counters, byWall bool) phaseStats {
	n := float64(b.ops - a.ops)
	t := b.busy - a.busy
	if byWall {
		t = b.wall - a.wall
	}
	return phaseStats{
		opsPerS:   n / t.Seconds(),
		cpuUSPer:  float64(b.cpu-a.cpu) / float64(time.Microsecond) / n,
		allocsPer: float64(b.mallocs-a.mallocs) / n,
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSlices caps the slices p95 is taken over; each slice holds at
// least tailMin calls, so fifty lie beyond its p95.
const (
	tailSlices = 20
	tailMin    = 1000
)

// percentiles returns the median of every latency of a phase and its
// 95th percentile, in milliseconds. The calls, in the order they
// ended, are cut into up to tailSlices equal consecutive slices of at
// least tailMin; p95 is the mean over the middle half of the slices'
// own p95s (nearest rank), so a burst of host stalls in part of a run
// moves it only when it covers a quarter of the run. The tail stops at
// p95 because a 2-vCPU VM's steal time sets p99: in runs with 4-14%
// steal, engine-batch's p99 doubled while its p50 moved 9%. It fails
// when fewer than tailMin calls were timed.
func percentiles(lats []time.Duration) (p50, p95 float64, err error) {
	n := len(lats)
	if n < tailMin {
		return 0, 0, fmt.Errorf("%d latency samples, fewer than %d", n, tailMin)
	}
	k := min(n/tailMin, tailSlices)
	var tails []float64
	for i := 0; i < k; i++ {
		s := sortedMS(lats[i*n/k : (i+1)*n/k])
		tails = append(tails, s[int(math.Ceil(0.95*float64(len(s))))-1])
	}
	sort.Float64s(tails)
	var sum float64
	mid := tails[k/4 : k-k/4]
	for _, t := range mid {
		sum += t
	}
	all := sortedMS(lats)
	return all[(n-1)/2], sum / float64(len(mid)), nil
}

// sortedMS returns latencies in milliseconds, sorted.
func sortedMS(lats []time.Duration) []float64 {
	s := make([]float64, len(lats))
	for i, d := range lats {
		s[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(s)
	return s
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns VmHWM of a process (0 = self) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM", path)
}

// medianSetup runs setup reps times, each after a GC, and returns the
// median duration in seconds plus the last rep's state; drop releases
// each earlier state before the next rep starts.
func medianSetup[T any](reps int, setup func() (T, error), drop func(T)) (float64, T, error) {
	var last, zero T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && drop != nil {
			drop(last)
		}
		runtime.GC()
		t0 := time.Now()
		st, err := setup()
		d := time.Since(t0)
		if err != nil {
			return 0, zero, err
		}
		secs = append(secs, d.Seconds())
		last = st
	}
	return median(secs), last, nil
}

// e2e fills the end-to-end metrics shared by every workload.
func (r *report) e2e(setupS float64, ws phaseStats, p50, p95, rssMB float64) {
	r.set("setup_s", "s", setupS)
	r.set("ops_per_s", "1/s", ws.opsPerS)
	r.set("p50_ms", "ms", p50)
	r.set("p95_ms", "ms", p95)
	r.set("cpu_us_per_op", "us", ws.cpuUSPer)
	r.set("allocs_per_op", "count", ws.allocsPer)
	r.set("peak_rss_mb", "MiB", rssMB)
}

// sim fills the exact simulated-device metrics.
func (r *report) sim(ops int, cycles uint64, pj float64, makespan uint64) {
	n := float64(ops)
	r.set("sim_cycles_per_op", "cycles", float64(cycles)/n)
	r.set("sim_energy_pj_per_op", "pJ", pj/n)
	r.set("sim_makespan_per_op", "cycles", float64(makespan)/n)
}
