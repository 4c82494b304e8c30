package dist

import (
	"fmt"
	"time"
)

// TraceEvent records one collective operation: its payload, the local
// computation time that preceded it, and the time spent inside it.
type TraceEvent struct {
	// Bytes is the collective's payload size (one direction).
	Bytes int
	// CompBefore is the local computation time since the previous
	// collective (or since the wrapper was created).
	CompBefore time.Duration
	// CommTime is the wall time spent inside the collective, including
	// wait.
	CommTime time.Duration
}

// Stats sums a rank's collective timeline, the instrumentation behind
// the comp./comm. breakdown of Table III.
type Stats struct {
	// CommTime is the wall time spent inside collectives, including wait.
	CommTime time.Duration
	// Collectives is the number of collective calls.
	Collectives int
	// Bytes is the total payload (one direction) of all collectives.
	Bytes int64
}

func (s Stats) String() string {
	return fmt.Sprintf("comm=%v collectives=%d bytes=%d", s.CommTime, s.Collectives, s.Bytes)
}

// InstrumentedComm wraps a Comm and records the full collective timeline
// of an algorithm run. Stats sums it; Trace and TailComp feed
// ReplayTrace, the trace-driven alternative to the closed-form cost
// model: run the real algorithm once at small scale, then replay the
// captured timeline through the α-β machine model at any process count.
// Because the collective *sequence* of these algorithms is independent
// of P (it depends only on m, n and the iteration count), the replay
// faithfully extrapolates both the computation (scaled by row share) and
// the communication (re-priced per collective). Not safe for use from
// multiple goroutines (each rank owns its wrapper, like an MPI rank).
type InstrumentedComm struct {
	Comm
	events []TraceEvent
	last   time.Time // end of the previous collective
}

// Instrument wraps c and starts the computation clock.
func Instrument(c Comm) *InstrumentedComm {
	return &InstrumentedComm{Comm: c, last: time.Now()}
}

// AllreduceSum forwards to the wrapped communicator and records the
// event.
func (ic *InstrumentedComm) AllreduceSum(buf []float64) {
	start := time.Now()
	ic.Comm.AllreduceSum(buf)
	end := time.Now()
	ic.events = append(ic.events, TraceEvent{
		Bytes:      8 * len(buf),
		CompBefore: start.Sub(ic.last),
		CommTime:   end.Sub(start),
	})
	ic.last = end
}

// Stats returns the sum of the timeline recorded so far.
func (ic *InstrumentedComm) Stats() Stats {
	s := Stats{Collectives: len(ic.events)}
	for _, ev := range ic.events {
		s.CommTime += ev.CommTime
		s.Bytes += int64(ev.Bytes)
	}
	return s
}

// Trace returns the recorded timeline.
func (ic *InstrumentedComm) Trace() []TraceEvent { return ic.events }

// TailComp returns the computation time after the last collective up to
// `end` (callers pass time.Now() right after the algorithm returns).
func (ic *InstrumentedComm) TailComp(end time.Time) time.Duration { return end.Sub(ic.last) }

// ReplayTrace prices a recorded timeline on machine mc at process count
// p, given the process count pMeasured the trace was captured with. The
// computation segments scale by pMeasured/p (row shares shrink), and each
// collective is re-priced by the α-β model at p ranks.
func ReplayTrace(mc Machine, trace []TraceEvent, tailComp time.Duration, pMeasured, p int) Breakdown {
	if pMeasured < 1 || p < 1 {
		panic(fmt.Sprintf("dist: ReplayTrace with pMeasured=%d p=%d", pMeasured, p))
	}
	scale := float64(pMeasured) / float64(p)
	var b Breakdown
	for _, ev := range trace {
		b.Comp += ev.CompBefore.Seconds() * scale
		b.Comm += mc.AllreduceTime(p, ev.Bytes)
	}
	b.Comp += tailComp.Seconds() * scale
	return b
}
