package dist

import (
	"fmt"
	"sync"
)

// LocalGroup is an in-process communicator group: P goroutine "ranks"
// sharing one address space. Collectives are deterministic — sums are
// always taken in rank order — so distributed runs are bit-reproducible
// and can be compared exactly against single-node runs.
type LocalGroup struct {
	p       int
	barrier *cyclicBarrier
	bufs    [][]float64 // per-rank slices registered for the active collective
	result  []float64
	ranges  []reduceRange
}

type reduceRange struct{ lo, hi int }

// NewLocalGroup creates a group of p ranks and returns one Comm per rank.
// Each returned Comm must be used by exactly one goroutine.
func NewLocalGroup(p int) []Comm {
	if p < 1 {
		panic(fmt.Sprintf("dist: group size %d < 1", p))
	}
	g := &LocalGroup{
		p:       p,
		barrier: newCyclicBarrier(p),
		bufs:    make([][]float64, p),
		ranges:  make([]reduceRange, p),
	}
	comms := make([]Comm, p)
	for r := 0; r < p; r++ {
		comms[r] = &localComm{g: g, rank: r}
	}
	return comms
}

type localComm struct {
	g    *LocalGroup
	rank int
}

func (c *localComm) Rank() int { return c.rank }
func (c *localComm) Size() int { return c.g.p }

// AllreduceSum: every rank registers its buffer; after a barrier each rank
// reduces a disjoint index range of the result (in fixed rank order, so
// the floating-point sum is deterministic); after a second barrier every
// rank copies the shared result back into its own buffer.
func (c *localComm) AllreduceSum(buf []float64) {
	g := c.g
	if g.p == 1 {
		return
	}
	g.bufs[c.rank] = buf
	if c.rank == 0 {
		// Rank 0 publishes the shared result buffer and the partition.
		// Other ranks observe it after the barrier.
		g.result = make([]float64, len(buf))
		n := len(buf)
		chunk, rem := n/g.p, n%g.p
		lo := 0
		for r := 0; r < g.p; r++ {
			hi := lo + chunk
			if r < rem {
				hi++
			}
			g.ranges[r] = reduceRange{lo, hi}
			lo = hi
		}
	}
	g.barrier.await()
	// Validate consistent lengths (cheap; catches protocol bugs).
	if len(g.bufs[c.rank]) != len(g.result) {
		panic(fmt.Sprintf("dist: AllreduceSum length mismatch: rank %d has %d, group has %d",
			c.rank, len(g.bufs[c.rank]), len(g.result)))
	}
	rr := g.ranges[c.rank]
	for i := rr.lo; i < rr.hi; i++ {
		s := 0.0
		for r := 0; r < g.p; r++ {
			s += g.bufs[r][i]
		}
		g.result[i] = s
	}
	g.barrier.await()
	copy(buf, g.result)
	g.barrier.await() // everyone has copied out before result may be reused
}

// cyclicBarrier is a reusable P-party barrier.
type cyclicBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     uint64
}

func newCyclicBarrier(parties int) *cyclicBarrier {
	b := &cyclicBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *cyclicBarrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// Run spawns one goroutine per rank, calls body(comm[r]) on each, and
// waits for all to finish. Any panic in a rank is re-raised in the caller.
func Run(p int, body func(Comm)) {
	comms := NewLocalGroup(p)
	var wg sync.WaitGroup
	panics := make([]any, p)
	wg.Add(p)
	for r := 0; r < p; r++ {
		//repolint:allow ctxcancel — wg-bounded rank goroutines; Run returns only after all ranks join
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					panics[r] = e
				}
			}()
			body(comms[r])
		}(r)
	}
	wg.Wait()
	for _, e := range panics {
		if e != nil {
			panic(e)
		}
	}
}
