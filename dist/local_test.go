package dist

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAllreduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		Run(p, func(c Comm) {
			buf := []float64{float64(c.Rank() + 1), 10 * float64(c.Rank())}
			c.AllreduceSum(buf)
			wantA := float64(p*(p+1)) / 2
			wantB := 10 * float64(p*(p-1)) / 2
			if buf[0] != wantA || buf[1] != wantB {
				t.Errorf("p=%d rank=%d: got %v, want [%v %v]", p, c.Rank(), buf, wantA, wantB)
			}
		})
	}
}

func TestAllreduceDeterministic(t *testing.T) {
	// Floating-point sums must be identical across ranks and across runs.
	const p = 8
	results := make([][]float64, p)
	for trial := 0; trial < 3; trial++ {
		Run(p, func(c Comm) {
			buf := make([]float64, 100)
			for i := range buf {
				buf[i] = 1.0 / float64((c.Rank()+1)*(i+1))
			}
			c.AllreduceSum(buf)
			if trial == 0 {
				results[c.Rank()] = append([]float64(nil), buf...)
			} else {
				for i := range buf {
					if buf[i] != results[c.Rank()][i] {
						t.Errorf("non-deterministic sum at rank %d index %d", c.Rank(), i)
						return
					}
				}
			}
		})
	}
	for r := 1; r < p; r++ {
		for i := range results[0] {
			if results[r][i] != results[0][i] {
				t.Fatalf("rank %d result differs from rank 0 at %d", r, i)
			}
		}
	}
}

func TestAllreduceRepeated(t *testing.T) {
	// Several back-to-back collectives must not interfere (barrier reuse).
	Run(4, func(c Comm) {
		for round := 0; round < 10; round++ {
			buf := []float64{1}
			c.AllreduceSum(buf)
			if buf[0] != 4 {
				t.Errorf("round %d rank %d: got %v", round, c.Rank(), buf[0])
				return
			}
		}
	})
}

func TestCyclicBarrier(t *testing.T) {
	// No party passes a round before all have entered it, and the
	// barrier is reusable across rounds.
	const p, rounds = 6, 3
	b := newCyclicBarrier(p)
	var phase atomic.Int32
	Run(p, func(c Comm) {
		for round := 1; round <= rounds; round++ {
			phase.Add(1)
			b.await()
			if got := phase.Load(); got != int32(round*p) {
				t.Errorf("rank %d passed round %d with phase %d", c.Rank(), round, got)
			}
			b.await() // everyone has checked before the next round starts
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	var once sync.Once
	Run(3, func(c Comm) {
		// All ranks must panic together or the barrier would deadlock;
		// here no collective is used, so one panic is fine.
		once.Do(func() { panic("boom") })
	})
}

func TestNewLocalGroupValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	NewLocalGroup(0)
}

func TestInstrumentedComm(t *testing.T) {
	Run(2, func(c Comm) {
		ic := Instrument(c)
		ic.AllreduceSum(make([]float64, 50))
		ic.AllreduceSum(make([]float64, 10))
		tr := ic.Trace()
		if len(tr) != 2 || tr[0].Bytes != 400 || tr[1].Bytes != 80 {
			t.Errorf("trace %+v, want payloads 400 and 80 bytes", tr)
			return
		}
		// Stats is the sum of the timeline.
		st := ic.Stats()
		if st.Collectives != 2 || st.Bytes != 480 || st.CommTime != tr[0].CommTime+tr[1].CommTime {
			t.Errorf("stats %+v do not sum trace %+v", st, tr)
		}
		if st.String() == "" {
			t.Error("empty Stats string")
		}
		for _, ev := range tr {
			if ev.CompBefore < 0 || ev.CommTime < 0 {
				t.Errorf("negative segment in %+v", ev)
			}
		}
		if ic.TailComp(time.Now()) < 0 {
			t.Error("negative tail computation")
		}
	})
}

func TestLayout(t *testing.T) {
	l := Layout{M: 10, P: 3}
	covered := make([]int, 10)
	for r := 0; r < 3; r++ {
		lo, hi := l.RowRange(r)
		for i := lo; i < hi; i++ {
			covered[i]++
			if l.Owner(i) != r {
				t.Fatalf("Owner(%d) = %d, want %d", i, l.Owner(i), r)
			}
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("row %d covered %d times", i, c)
		}
	}
	// Exact division (the paper's assumption).
	l = Layout{M: 16, P: 4}
	for r := 0; r < 4; r++ {
		lo, hi := l.RowRange(r)
		if hi-lo != 4 {
			t.Fatalf("even split violated: rank %d has %d rows", r, hi-lo)
		}
	}
}

func TestLayoutPanics(t *testing.T) {
	l := Layout{M: 4, P: 2}
	mustPanicD(t, func() { l.RowRange(2) })
	mustPanicD(t, func() { l.Owner(4) })
}

func mustPanicD(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
