package ooc

import (
	"fmt"
	"time"

	"repro/internal/trace"
	"repro/mat"
)

// prefetched is one filled panel hand-off from the reader goroutine.
type prefetched struct {
	backing *mat.Dense // the full-height buffer to recycle
	view    *mat.Dense // backing sliced to the panel's rows
	p       panel
	err     error
}

// runSweep streams every panel of the sweeper's schedule through fn with
// double-buffered prefetch: a dedicated reader goroutine (carrying the
// sweep's engine for cooperative cancellation) fills panel k+1 while fn
// runs the compute kernels on panel k. Each sweep is therefore exactly
// one sequential traversal of the working matrix with a resident set of
// two panels. The hand-off stall — the compute side arriving before its
// next panel is ready — is counted and timed (ooc_prefetch_stalls /
// ooc_prefetch_stall_ns), which is the direct measure of how completely
// the pipeline hides the disk.
//
// runSweep returns only after the reader goroutine has exited, so
// callers may close the source immediately afterwards on any path,
// including errors and cancellation.
func (s *fileSweeper) runSweep(src *mat.FileMatrix, fn func(p panel, pd *mat.Dense) error) error {
	e := s.e
	free := make(chan *mat.Dense, 2)
	free <- s.bufs[0]
	free <- s.bufs[1]
	out := make(chan prefetched, 2)
	done := make(chan struct{})
	defer func() {
		close(done)
		// Drain until the reader's deferred close: its exit is what makes
		// closing the source safe for the caller.
		for range out {
		}
	}()

	go func() {
		defer close(out)
		for _, p := range s.sched {
			// Cooperative cancellation between reads, mirroring the sweep
			// loops' per-iteration e.Err() observance.
			if err := e.Err(); err != nil {
				select {
				case out <- prefetched{err: err}:
				case <-done:
				}
				return
			}
			var buf *mat.Dense
			select {
			case buf = <-free:
			case <-done:
				return
			}
			view := buf.Slice(0, p.hi-p.lo, 0, s.n)
			sp := trace.Region(trace.StageOOCRead)
			nb, err := src.ReadRows(view, p.lo, p.hi)
			sp.End()
			trace.Add(trace.CtrOOCBytesRead, nb)
			trace.Inc(trace.CtrOOCPanelsRead)
			select {
			case out <- prefetched{backing: buf, view: view, p: p, err: err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	for range s.sched {
		var res prefetched
		var ok bool
		select {
		case res, ok = <-out:
		default:
			t0 := time.Now()
			res, ok = <-out
			trace.Inc(trace.CtrOOCPrefetchStalls)
			trace.Add(trace.CtrOOCPrefetchStallNs, time.Since(t0).Nanoseconds())
		}
		if !ok {
			return fmt.Errorf("ooc: prefetch pipeline closed early")
		}
		if res.err != nil {
			return res.err
		}
		if err := fn(res.p, res.view); err != nil {
			return err
		}
		free <- res.backing
	}
	return nil
}
