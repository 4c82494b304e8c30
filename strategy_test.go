package tsqrcp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/mat"
	"repro/metrics"
	"repro/testmat"
)

func TestQRCPStrategyCQRRPT(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	a := testmat.Generate(rng, 4000, 32, 25, 1e-10)
	f, err := QRCP(a, &Options{Strategy: StrategyCQRRPT, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Perm.IsValid() {
		t.Fatalf("invalid permutation %v", f.Perm)
	}
	if e := metrics.Orthogonality(f.Q); e > 1e-13 {
		t.Fatalf("orthogonality %g", e)
	}
	if r := metrics.Residual(a, f.Q, f.R, f.Perm); r > 1e-13 {
		t.Fatalf("residual %g", r)
	}
	if f.Rank != 32 {
		t.Fatalf("Rank = %d, want 32", f.Rank)
	}
	if got := f.NumericalRank(0); got != 25 {
		t.Fatalf("NumericalRank = %d, want 25", got)
	}
}

// TestQRCPStrategyCQRRPTWorkersInvariant pins the public determinism
// contract: for a fixed Seed the CQRRPT result does not depend on the
// engine width.
func TestQRCPStrategyCQRRPTWorkersInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	a := testmat.Generate(rng, 6000, 24, 19, 1e-8)
	var ref *Factorization
	for _, w := range []int{1, 3, 8} {
		f, err := NewEngine(w).QRCP(a, &Options{Strategy: StrategyCQRRPT, Seed: 7})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if ref == nil {
			ref = f
			continue
		}
		for i := range f.Q.Data {
			if math.Float64bits(f.Q.Data[i]) != math.Float64bits(ref.Q.Data[i]) {
				t.Fatalf("workers %d: Q differs from workers 1 at flat index %d", w, i)
			}
		}
		for i := range f.R.Data {
			if math.Float64bits(f.R.Data[i]) != math.Float64bits(ref.R.Data[i]) {
				t.Fatalf("workers %d: R differs from workers 1 at flat index %d", w, i)
			}
		}
	}
}

func TestQRCPBatchStrategyCQRRPT(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	problems := make([]*mat.Dense, 6)
	for i := range problems {
		problems[i] = testmat.Generate(rng, 1500+100*i, 16, 13, 1e-9)
	}
	results, err := QRCPBatch(context.Background(), problems,
		&Options{Strategy: StrategyCQRRPT, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("problem %d: %v", i, res.Err)
		}
		if e := metrics.Orthogonality(res.F.Q); e > 1e-13 {
			t.Fatalf("problem %d: orthogonality %g", i, e)
		}
		if r := metrics.Residual(problems[i], res.F.Q, res.F.R, res.F.Perm); r > 1e-13 {
			t.Fatalf("problem %d: residual %g", i, r)
		}
	}
}

func TestOptionsStrategyZeroValueIsIterated(t *testing.T) {
	if (&Options{}).strategy() != StrategyIteCholQRCP {
		t.Fatal("zero-value Options must select StrategyIteCholQRCP")
	}
	if (*Options)(nil).strategy() != StrategyIteCholQRCP {
		t.Fatal("nil Options must select StrategyIteCholQRCP")
	}
}
