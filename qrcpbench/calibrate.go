package main

import (
	"math/rand"
	"runtime"
	"time"
)

// The host's speed changes under the benchmark: other guests contend
// for its cores, and it flips between a fast state and one about 1.7×
// slower, for tens of milliseconds to minutes at a time, in CPU time as
// much as in wall time. How much of a run falls in the slow state moved
// ite-tall's raw p50 by 15 % and its p90 by 36 % between runs. So each
// run also times a fixed kernel of the benchmark's own — a plain-Go Gram
// matrix of a 4096×64 matrix, the shape and kind of loop of ite-tall's
// sweeps — before and after every 30 ms round of the workload, and
// reports every time rescaled to a nominal host on which one rep of that
// kernel takes calNominalMs (about what it takes on the measurement VM
// in its fast state). A change to the program cannot change the kernel,
// so it moves the rescaled times as it moves the raw ones; a slow state
// of the host slows the kernel and the workload alike, and cancels.
const (
	calRows, calCols = 4096, 64
	calNominalMs     = 7.5
	calSeed          = 1
)

// calibrator times reps of the calibration kernel. Its matrix and Gram
// are allocated once; a rep allocates only the growth of its two logs,
// a few KiB a run.
type calibrator struct {
	a, g      []float64
	wall, cpu []float64 // ms per rep
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(calSeed))
	a := make([]float64, calRows*calCols)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return &calibrator{a: a, g: make([]float64, calCols*calCols)}
}

// sample times one rep and returns its slowdown against the nominal
// host, in wall time and in the CPU time of the thread that ran it.
func (c *calibrator) sample() (wall, cpu float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	t0 := time.Now()
	gramLower(c.a, c.g, calCols)
	wallMs := float64(time.Since(t0)) / 1e6
	cpuMs := float64(threadCPU()-cpu0) / 1e6
	c.wall = append(c.wall, wallMs)
	c.cpu = append(c.cpu, cpuMs)
	return wallMs / calNominalMs, cpuMs / calNominalMs
}

// medians are the run's median rep times in ms, for the run log.
func (c *calibrator) medians() (wall, cpu float64) {
	return median(c.wall), median(c.cpu)
}

// gramLower accumulates the lower triangle of AᵀA for a row-major
// matrix with n columns into g.
func gramLower(a, g []float64, n int) {
	clear(g)
	for i := 0; i+n <= len(a); i += n {
		row := a[i : i+n]
		for j, aj := range row {
			gj := g[j*n : j*n+j+1]
			for k := range gj {
				gj[k] += aj * row[k]
			}
		}
	}
}
