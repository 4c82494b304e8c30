// Command bench-service measures the QRCP service end to end: it
// drives a qrcpd server (an in-process one on a loopback port by
// default, or an external one via -addr) with concurrent clients
// submitting fixed-shape jobs, and reports throughput (jobs/sec) and
// latency quantiles (p50/p99) as BENCH_kernels.json rows gated by
// cmd/bench-check.
//
// Rows emitted per benchmarked shape (schema bench/SCHEMA.md):
//
//	{Name: "ServiceQRCP", m, n}                   jobs/sec (problems_per_sec) + mean latency (ns_per_op)
//	{Name: "ServiceQRCP", Stage: "latency_p50"}   p50 latency (ns_per_op)
//	{Name: "ServiceQRCP", Stage: "latency_p99"}   p99 latency (ns_per_op)
//
// With -o pointing at an existing report of the same schema version
// (e.g. the file cmd/bench-kernels just wrote), the service rows are
// merged into it — previous ServiceQRCP rows replaced, everything else
// preserved — so the whole candidate stays one file for bench-check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/metrics"
	"repro/service"
	"repro/testmat"
)

// record/report mirror the shared BENCH_kernels.json layout
// (bench/SCHEMA.md).
type record struct {
	Name           string  `json:"name"`
	Stage          string  `json:"stage,omitempty"`
	M              int     `json:"m"`
	N              int     `json:"n"`
	Iters          int     `json:"iters"`
	NsPerOp        float64 `json:"ns_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	GFLOPS         float64 `json:"gflops"`
	Gbps           float64 `json:"gbps,omitempty"`
	ProblemsPerSec float64 `json:"problems_per_sec,omitempty"`
	Value          float64 `json:"value,omitempty"`
	Unit           string  `json:"unit,omitempty"`
	PctPeak        float64 `json:"pct_peak,omitempty"`
}

type report struct {
	Schema     string   `json:"schema"`
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Records    []record `json:"records"`
}

// serviceBenchName keys the service rows; bench-check's absolute gate
// looks them up by this name.
const serviceBenchName = "ServiceQRCP"

func main() {
	addr := flag.String("addr", "", "benchmark an external qrcpd at this address (default: spawn in-process)")
	clients := flag.Int("clients", 8, "concurrent client connections")
	jobs := flag.Int("jobs", 400, "total jobs per benchmarked shape")
	batch := flag.Int("batch", 32, "bucket fill trigger of the spawned server")
	flush := flag.Duration("flush", 2*time.Millisecond, "bucket deadline trigger of the spawned server")
	out := flag.String("o", "", "write/merge JSON rows into this report file")
	flag.Parse()

	target := *addr
	if target == "" {
		srv := service.New(service.Config{
			BatchSize:     *batch,
			FlushInterval: *flush,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-service:", err)
			os.Exit(1)
		}
		//repolint:allow ctxcancel — benchmark harness; the deferred Shutdown closes the listener and ends Serve
		go srv.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		target = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "bench-service: spawned in-process qrcpd on %s (batch %d, flush %v)\n",
			target, *batch, *flush)
	}

	// The smoke-gate shape first (bench-check's absolute jobs/sec floor
	// reads it), then a wider shape for the latency/batching profile.
	var recs []record
	for _, sh := range []struct{ m, n int }{{1000, 32}, {2000, 64}} {
		r, err := benchShape(target, sh.m, sh.n, *clients, *jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-service:", err)
			os.Exit(1)
		}
		recs = append(recs, r...)
	}

	if *out == "" {
		return
	}
	if err := writeMerged(*out, recs); err != nil {
		fmt.Fprintln(os.Stderr, "bench-service:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
}

// benchShape drives one (m, n) shape with `clients` connections until
// `jobs` jobs completed, and converts the latency distribution to
// bench rows.
func benchShape(addr string, m, n, clients, jobs int) ([]record, error) {
	rng := rand.New(rand.NewSource(42))
	// One canonical matrix per shape: serving-identical jobs is the
	// bucketing best case and keeps the measurement about the service
	// layer, not generator variance.
	a := testmat.Generate(rng, m, n, (n*4)/5, 1e-12)

	conns := make([]*service.Client, clients)
	for i := range conns {
		c, err := service.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		defer c.Close()
		conns[i] = c
	}

	// Warmup: populate engine workspace pools and warm the buckets.
	warm := min(jobs/10+1, 16)
	for i := 0; i < warm; i++ {
		if _, err := conns[i%clients].Factor(context.Background(), service.Request{Tenant: "bench", A: a}); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}

	latencies := make([]time.Duration, jobs)
	var next int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(c *service.Client) {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				if i >= jobs || firstErr != nil {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				t0 := time.Now()
				_, err := c.Factor(context.Background(), service.Request{Tenant: "bench", A: a})
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				latencies[i] = time.Since(t0)
			}
		}(conns[ci])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	wall := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(latencies)-1))
		return float64(latencies[idx])
	}
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	mean := float64(sum) / float64(jobs)
	jobsPerSec := float64(jobs) / wall.Seconds()
	p50, p99 := quantile(0.50), quantile(0.99)

	fmt.Fprintf(os.Stderr, "%-24s m=%-7d n=%-4d %10.1f jobs/s  p50 %8.2fms  p99 %8.2fms  mean %8.2fms  (%d jobs, %d clients)\n",
		serviceBenchName, m, n, jobsPerSec, p50/1e6, p99/1e6, mean/1e6, jobs, clients)

	return []record{
		{Name: serviceBenchName, M: m, N: n, Iters: jobs, NsPerOp: mean, ProblemsPerSec: jobsPerSec},
		{Name: serviceBenchName, Stage: "latency_p50", M: m, N: n, Iters: jobs, NsPerOp: p50},
		{Name: serviceBenchName, Stage: "latency_p99", M: m, N: n, Iters: jobs, NsPerOp: p99},
	}, nil
}

// writeMerged merges the service rows into the report at path: existing
// non-service records are preserved, previous service rows replaced. A
// missing file starts a fresh service-only report; a schema-version
// mismatch is a hard error (regenerate the base file first).
func writeMerged(path string, recs []record) error {
	rep := report{
		Schema:     metrics.SchemaVersion,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if buf, err := os.ReadFile(path); err == nil {
		var base report
		if err := json.Unmarshal(buf, &base); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if base.Schema != metrics.SchemaVersion {
			return fmt.Errorf("%s: schema %q, want %q — regenerate it with cmd/bench-kernels first",
				path, base.Schema, metrics.SchemaVersion)
		}
		for _, r := range base.Records {
			if r.Name != serviceBenchName {
				rep.Records = append(rep.Records, r)
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	rep.Records = append(rep.Records, recs...)
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
