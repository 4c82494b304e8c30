package trace

import "time"

// StageStats is one row of the breakdown: a stage's call count, total
// time, and (when the instrumentation attributes them) flops and bytes.
type StageStats struct {
	// Stage is the row name (Stage.String()).
	Stage string `json:"stage"`
	// Kernel marks kernel-level rows, which nest inside stage rows and
	// must not be added to them.
	Kernel bool `json:"kernel,omitempty"`
	// Count is the number of closed spans.
	Count int64 `json:"count"`
	// TotalNs is the accumulated wall time in nanoseconds.
	TotalNs int64 `json:"total_ns"`
	// Flops is the attributed floating-point operation count (0 when the
	// stage does no arithmetic, e.g. column swaps).
	Flops int64 `json:"flops,omitempty"`
	// Bytes is the attributed data volume (collectives only).
	Bytes int64 `json:"bytes,omitempty"`
	// GFLOPS is Flops/TotalNs (flop/ns ≡ GFLOP/s), 0 when undefined.
	GFLOPS float64 `json:"gflops,omitempty"`
}

// Seconds returns the row's total time in seconds.
func (s StageStats) Seconds() float64 { return float64(s.TotalNs) / 1e9 }

// WorkerStats is one pool worker's busy time inside the report window.
// Worker 0 is the calling goroutine of parallel regions.
type WorkerStats struct {
	Worker int   `json:"worker"`
	BusyNs int64 `json:"busy_ns"`
	// Utilization is BusyNs over the report's wall-clock window, in [0,1]
	// (0 when the window length is unknown).
	Utilization float64 `json:"utilization"`
}

// Report is a point-in-time snapshot of every accumulator, the JSON-ready
// form the cmd drivers and the metrics bridge consume.
type Report struct {
	// Enabled reports whether tracing was on when the snapshot was taken.
	Enabled bool `json:"enabled"`
	// WallNs is the wall-clock length of the window since Enable/Reset
	// (0 when tracing was never enabled).
	WallNs int64 `json:"wall_ns"`
	// Stages holds the non-empty rows in declaration order: algorithm
	// stages first, then kernel rows.
	Stages []StageStats `json:"stages"`
	// Counters holds the non-zero named event counters.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Workers holds per-worker busy time, worker 0 (the caller) first.
	Workers []WorkerStats `json:"workers,omitempty"`
}

// Snapshot renders the current accumulator state. It is safe to call
// concurrently with open spans; rows seen mid-update are simply slightly
// stale.
func Snapshot() Report {
	r := Report{Enabled: enabled.Load()}
	if ws := windowStart.Load(); ws > 0 {
		r.WallNs = time.Now().UnixNano() - ws
	}
	for s := Stage(0); s < numStages; s++ {
		a := &stages[s]
		st := StageStats{
			Stage:   s.String(),
			Kernel:  s.IsKernel(),
			Count:   a.count.Load(),
			TotalNs: a.ns.Load(),
			Flops:   a.flops.Load(),
			Bytes:   a.bytes.Load(),
		}
		if st.Count == 0 && st.TotalNs == 0 && st.Flops == 0 && st.Bytes == 0 {
			continue
		}
		if st.TotalNs > 0 && st.Flops > 0 {
			st.GFLOPS = float64(st.Flops) / float64(st.TotalNs)
		}
		r.Stages = append(r.Stages, st)
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := counters[c].v.Load(); v != 0 {
			if r.Counters == nil {
				r.Counters = make(map[string]int64, int(numCounters))
			}
			r.Counters[c.String()] = v
		}
	}
	for id := range workerBusy {
		busy := workerBusy[id].v.Load()
		if busy == 0 {
			continue
		}
		w := WorkerStats{Worker: id, BusyNs: busy}
		if r.WallNs > 0 {
			w.Utilization = float64(busy) / float64(r.WallNs)
		}
		r.Workers = append(r.Workers, w)
	}
	return r
}

// Stage returns the named row of the report, if present.
func (r Report) Stage(name string) (StageStats, bool) {
	for _, st := range r.Stages {
		if st.Stage == name {
			return st, true
		}
	}
	return StageStats{}, false
}
