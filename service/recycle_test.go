package service

// Ownership tests for the recycled buffers of a served job: request and
// response frames on both ends, and the server's decoded matrix.
// TestManyConcurrentClients runs the shared pools under -race.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	tsqrcp "repro"
)

// TestServedJobAllocation: once the pools are warm, a served job
// allocates what Engine.QRCP allocates in process (its exact-size Q and
// its n×n scratch), the client's decoded Q, and at most 32 KiB more — on
// a power-of-two shape and off it. A sync.Pool may drop its buffers at
// any collection, and in a test process whose live heap is a few MiB the
// collector runs every few jobs, so the measured jobs run with it off;
// and a pool still grows to its peak population in steps, so the bound
// holds the least of a few windows. A buffer left unrecycled costs every
// window; the test checks recycling, not how the pools are trimmed.
func TestServedJobAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; alloc counts are meaningless")
	}
	const (
		workers = 8
		jobs    = 16 // per window
		windows = 4
		slack   = 32 << 10
	)
	for _, sh := range []struct{ m, n int }{{512, 16}, {1000, 32}} {
		t.Run(fmt.Sprintf("%dx%d", sh.m, sh.n), func(t *testing.T) {
			srv := startServer(t, Config{BatchSize: workers, FlushInterval: time.Millisecond})
			c := dialServer(t, srv)
			a := randMat(rand.New(rand.NewSource(31)), sh.m, sh.n)
			serve := func() {
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < jobs/workers; i++ {
							if _, err := c.Factor(context.Background(), Request{A: a}); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			serve() // warm the frame and workspace pools
			serve()
			eng := tsqrcp.DefaultEngine()
			inProcess := allocBytes(func() {
				if _, err := eng.QRCP(a, nil); err != nil {
					t.Fatal(err)
				}
			})
			perJob := uint64(math.MaxUint64)
			for range windows {
				perJob = min(perJob, allocBytes(serve)/jobs)
			}
			if limit := inProcess + uint64(sh.m*sh.n*8+slack); perJob > limit {
				t.Errorf("a served %dx%d job allocated %d bytes, want ≤ %d (in-process QRCP %d + client Q %d + %d)",
					sh.m, sh.n, perJob, limit, inProcess, sh.m*sh.n*8, slack)
			}
			t.Logf("%d bytes per served job = 2·m·n·8 + %d; in-process QRCP %d", perJob, int(perJob)-2*sh.m*sh.n*8, inProcess)
		})
	}
}

// TestStatsBlobSurvivesTraffic: the raw stats blob a client hands its
// caller is its frame's own tail, so that frame must never be recycled
// into later responses.
func TestStatsBlobSurvivesTraffic(t *testing.T) {
	srv := startServer(t, Config{BatchSize: 1})
	c := dialServer(t, srv)
	stats := func() []byte {
		t.Helper()
		id, ch, err := c.register()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.w.send(encodeStatsRequest(id)); err != nil {
			t.Fatal(err)
		}
		m, err := c.await(context.Background(), id, ch)
		if err != nil || m.stats == nil {
			t.Fatalf("stats query: %v, blob %q", err, m.stats)
		}
		return m.stats
	}
	blob := stats()
	want := bytes.Clone(blob)
	// Later stats responses and small results land in the same frame
	// class as the blob's frame.
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 16; i++ {
		if _, err := c.Factor(context.Background(), Request{A: randMat(rng, 4, 4)}); err != nil {
			t.Fatal(err)
		}
		stats()
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("stats blob changed under later traffic:\n got %s\nwant %s", blob, want)
	}
}
