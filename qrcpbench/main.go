// Command qrcpbench is the repository's end-to-end benchmark. It runs one
// named workload against the public entry points (Engine.QRCP,
// Engine.QRCPFile, Engine.QRCPBatch, service.Client.Factor), checks every
// output bit for bit against a reference it validated first, and prints
// one JSON result line:
//
//	bash qrcpbench/run.sh --workload ite-tall --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced re-run (see README.md).
// Times are rescaled to a nominal host by an interleaved calibration
// kernel (see calibrate.go). Run information — the input checksum,
// generation time, raw times, calibration reps, host steal share — goes
// to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// their median.
const setupRepeats = 11

// gcMemoryLimit is the heap size at which the collector runs.
const gcMemoryLimit = 128 << 20

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line, the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: ite-tall, cqrrpt-vtall or served-small")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "qrcpbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	// The collector runs when the heap reaches gcMemoryLimit, not each
	// time it doubles. The benchmark's live heap is a few MiB, so at the
	// default GOGC a collection ran every two or three ite-tall ops, and
	// its mark workers on the other vCPU slowed the ops they overlapped.
	// alloc_mib_per_op still reports every byte allocated.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcMemoryLimit)
	// Everything the run must finish by, well inside a 180 s budget; an
	// op still pending then fails instead of hanging the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+150*time.Second)
	defer cancel()

	scratch := filepath.Join(".bench_build", fmt.Sprintf("qrcpbench-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	t0 := time.Now()
	wl, sum, err := newWorkload(ctx, name, seed, engineWidth)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qrcpbench: workload %s seed %d width %d of %d input_fnv64 %016x inputs+reference %.2fs (untimed)\n",
		name, seed, engineWidth, nproc, sum, time.Since(t0).Seconds())

	var out output
	if traced {
		out, err = runTraced(wl, seconds, nproc, scratch)
	} else {
		out, err = runEndToEnd(wl, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// latencyCapacity bounds the samples one window of the given length can
// record; the fastest workload completes a few thousand ops a second.
func latencyCapacity(seconds float64) int { return int(20000*seconds) + 4*minTimedOps }

// runEndToEnd sets the workload up setupRepeats times, keeps the last
// set-up for one timed window, and reports the end-to-end metrics. Every
// time is rescaled to the calibration's nominal host (see calibrate.go):
// each set-up by the two reps around it, the window round by round.
func runEndToEnd(wl workload, seconds float64) (output, error) {
	cal := newCalibrator()
	setups := make([]float64, setupRepeats)
	rawSetups := make([]float64, setupRepeats)
	before, _ := cal.sample()
	for i := range setups {
		t := time.Now()
		if err := wl.setUp(); err != nil {
			return output{}, fmt.Errorf("set-up: %w", err)
		}
		rawSetups[i] = time.Since(t).Seconds()
		after, _ := cal.sample()
		setups[i] = rawSetups[i] / ((before + after) / 2)
		before = after
		if i < len(setups)-1 {
			wl.tearDown()
		}
	}
	res := measure(wl, cal, seconds, minTimedOps, latencyCapacity(seconds))
	wl.tearDown()

	ops := float64(res.ops)
	calWall, calCPU := cal.medians()
	fmt.Fprintf(os.Stderr, "qrcpbench: %d ops in %.3fs, %d failed; raw p50 %.4gms p90 %.4gms cpu %.4gms/op setup %.4gs; "+
		"calibration %d reps, median wall %.4gms cpu %.4gms; host steal share %.4f\n",
		res.ops, res.wall.Seconds(), res.failed, percentile(res.rawLat, 50), percentile(res.rawLat, 90),
		float64(res.cpu)/1e6/ops, median(rawSetups), len(cal.wall), calWall, calCPU, res.steal)
	return output{
		Correct:   res.failed == 0,
		Attempted: res.ops,
		Failed:    res.failed,
		Metrics: map[string]metric{
			"latency_ms_p50":   {percentile(res.lat, 50), "ms"},
			"latency_ms_p90":   {percentile(res.lat, 90), "ms"},
			"throughput_per_s": {median(res.rates), "1/s"},
			"cpu_ms_per_op":    {median(res.cpuPerOp), "ms"},
			"alloc_mib_per_op": {float64(res.allocBytes) / (1 << 20) / ops, "MiB"},
			"setup_s":          {median(setups), "s"},
			"success_ratio":    {1 - float64(res.failed)/ops, "ratio"},
		},
	}, nil
}
