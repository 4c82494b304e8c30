package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// minTimedOps is the fewest ops a timed window records: with 100 samples
// the 90th percentile still has 10 samples beyond it.
const minTimedOps = 100

// window is one timed closed-loop measurement. Its latency buffer is
// allocated up front, so recording a sample never allocates inside the
// window; closed-loop goroutines share it through atomic counters.
type window struct {
	deadline time.Time // zero until open; a window never opened issues only minOps ops
	minOps   int64
	issued   atomic.Int64
	done     atomic.Int64
	failed   atomic.Int64
	lat      []float64 // ms per op, the first done entries valid
}

func newWindow(minOps, capacity int) *window {
	return &window{minOps: int64(minOps), lat: make([]float64, capacity)}
}

// openUntil (re)opens the window until the deadline; measure opens it
// once per round.
func (w *window) openUntil(deadline time.Time) { w.deadline = deadline }

// next reports whether the caller may issue another op. The window stays
// open until its time is up and at least minOps ops were issued in all,
// and never issues more ops than the buffer holds.
func (w *window) next() bool {
	n := w.issued.Add(1)
	if n > int64(len(w.lat)) || (n > w.minOps && !time.Now().Before(w.deadline)) {
		w.issued.Add(-1)
		return false
	}
	return true
}

// add records one completed op. A failed op (error, rejection or wrong
// output) is stored as +Inf: it misses every latency limit.
func (w *window) add(d time.Duration, ok bool) {
	i := w.done.Add(1) - 1
	if ok {
		w.lat[i] = float64(d) / 1e6
	} else {
		w.lat[i] = math.Inf(1)
		w.failed.Add(1)
	}
}

// result is what a timed window measured. Raw times are as the host ran
// them; nominal ones are rescaled round by round to the calibration's
// nominal host (see calibrate.go).
type result struct {
	ops, failed int
	wall, cpu   time.Duration // raw, summed over the workload's rounds
	allocBytes  uint64
	steal       float64   // host steal share over the window, −1 if unknown
	lat, rawLat []float64 // ms per op, nominal and raw
	rates       []float64 // per round: ops per nominal second
	cpuPerOp    []float64 // per round: nominal CPU ms per op
}

// roundSeconds is how long the workload runs between two calibration
// reps: one op of ite-tall, a few of cqrrpt-vtall, a few served batches.
// Bracketing the ops with reps this closely lets the reps see the host
// as the ops saw it; its speed changes within a second.
const roundSeconds = 0.03

// measure runs one timed window of the workload — at least seconds long
// and minOps ops — with GC first. The window alternates rounds of the
// closed loop with reps of the calibration kernel, and divides each
// round's op latencies, wall time and CPU time by the slowdown of the
// two reps around it. The reps lie outside the rounds, and the window's
// buffers and the steal readings outside the brackets, so the metrics
// count only the program's work.
func measure(wl workload, cal *calibrator, seconds float64, minOps, capacity int) result {
	w := newWindow(minOps, capacity)
	raw := make([]float64, capacity)
	rounds := int(seconds/roundSeconds) + minOps + 1
	r := result{rates: make([]float64, 0, rounds), cpuPerOp: make([]float64, 0, rounds)}
	st0, stOK0 := readSteal()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	beforeWall, beforeCPU := cal.sample()
	for {
		from := int(w.done.Load())
		cpu0 := processCPU()
		start := time.Now()
		deadline := start.Add(time.Duration(roundSeconds * float64(time.Second)))
		if deadline.After(end) {
			deadline = end
		}
		w.openUntil(deadline)
		wl.run(w)
		wall := time.Since(start)
		cpu := processCPU() - cpu0
		afterWall, afterCPU := cal.sample()
		slowWall, slowCPU := (beforeWall+afterWall)/2, (beforeCPU+afterCPU)/2
		beforeWall, beforeCPU = afterWall, afterCPU

		to := int(w.done.Load())
		copy(raw[from:to], w.lat[from:to])
		for i := from; i < to; i++ {
			w.lat[i] /= slowWall // +Inf, a failed op, stays +Inf
		}
		r.wall += wall
		r.cpu += cpu
		if n := float64(to - from); n > 0 {
			r.rates = append(r.rates, n/wall.Seconds()*slowWall)
			r.cpuPerOp = append(r.cpuPerOp, float64(cpu)/1e6/n/slowCPU)
		}
		if (to >= minOps && !time.Now().Before(end)) || to >= len(w.lat) {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	st1, stOK1 := readSteal()

	r.ops = int(w.done.Load())
	r.failed = int(w.failed.Load())
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.lat, r.rawLat = w.lat[:r.ops], raw[:r.ops]
	// A failed op counts as lasting the whole window, a finite upper
	// bound on any latency it could have had.
	for i, x := range r.lat {
		if math.IsInf(x, 1) {
			r.lat[i], r.rawLat[i] = float64(r.wall)/1e6, float64(r.wall)/1e6
		}
	}
	r.steal = -1
	if stOK0 && stOK1 {
		r.steal = st1.shareSince(st0)
	}
	return r
}

// merge pools two windows' samples and totals; steal is the later
// window's.
func (r result) merge(o result) result {
	cat := func(a, b []float64) []float64 { return append(append([]float64(nil), a...), b...) }
	return result{
		ops:        r.ops + o.ops,
		failed:     r.failed + o.failed,
		wall:       r.wall + o.wall,
		cpu:        r.cpu + o.cpu,
		allocBytes: r.allocBytes + o.allocBytes,
		steal:      o.steal,
		lat:        cat(r.lat, o.lat),
		rawLat:     cat(r.rawLat, o.rawLat),
		rates:      cat(r.rates, o.rates),
		cpuPerOp:   cat(r.cpuPerOp, o.cpuPerOp),
	}
}

// percentile returns the nearest-rank p-th percentile of the samples
// (sorting them in place).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	return samples[rankIndex(len(samples), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of n
// sorted samples: ⌈p·n/100⌉ − 1, with a tolerance so that p = 99.9 of
// 10000 samples is rank 9990, not 9991.
func rankIndex(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return max(0, min(idx, n-1))
}

// beyond is the number of the n samples that lie past the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// processCPU and threadCPU are the CPU time so far of the process and
// of the calling thread, from clock_gettime: to the nanosecond, where
// getrusage counts whole 4 ms scheduler ticks. Time the hypervisor
// steals from the VM is not charged to either.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

// The clock ids of clock_gettime(2) on Linux.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	total, steal uint64
}

// shareSince is the share of CPU ticks stolen by the hypervisor between
// an earlier reading and this one.
func (t cpuTicks) shareSince(prev cpuTicks) float64 {
	if t.total <= prev.total {
		return 0
	}
	return float64(t.steal-prev.steal) / float64(t.total-prev.total)
}

// parseProcStat reads the aggregate "cpu" line of a /proc/stat dump:
// user nice system idle iowait irq softirq steal [guest guest_nice]. The
// total sums the first eight fields; guest time is already inside user.
func parseProcStat(s string) (cpuTicks, error) {
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTicks{}, fmt.Errorf("/proc/stat cpu line has %d fields, want ≥ 9", len(f))
		}
		var t cpuTicks
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t, nil
	}
	return cpuTicks{}, fmt.Errorf("/proc/stat has no aggregate cpu line")
}

// readSteal samples /proc/stat; ok is false where it is unavailable.
func readSteal() (t cpuTicks, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	t, err = parseProcStat(string(b))
	return t, err == nil
}
