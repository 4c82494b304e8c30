package testmat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/parallel"
	"repro/mat"
)

func TestSigmaProfile(t *testing.T) {
	sv := SigmaProfile(5, 3, 1e-4)
	if sv[0] != 1 {
		t.Fatalf("σ₁ = %v, want 1", sv[0])
	}
	if math.Abs(sv[2]-1e-4)/1e-4 > 1e-12 {
		t.Fatalf("σ_r = %v, want 1e-4", sv[2])
	}
	if math.Abs(sv[1]-1e-2)/1e-2 > 1e-12 {
		t.Fatalf("σ₂ = %v, want 1e-2 (geometric)", sv[1])
	}
	for i := 3; i < 5; i++ {
		if sv[i] != TrailingSigma {
			t.Fatalf("trailing σ_%d = %v, want %v", i, sv[i], TrailingSigma)
		}
	}
}

func TestSigmaProfileRankOne(t *testing.T) {
	sv := SigmaProfile(3, 1, 1e-8)
	if sv[0] != 1 || sv[1] != TrailingSigma || sv[2] != TrailingSigma {
		t.Fatalf("rank-1 profile = %v", sv)
	}
}

func TestSigmaProfilePanics(t *testing.T) {
	mustPanic(t, func() { SigmaProfile(3, 0, 0.5) })
	mustPanic(t, func() { SigmaProfile(3, 4, 0.5) })
	mustPanic(t, func() { SigmaProfile(3, 2, 0) })
	mustPanic(t, func() { SigmaProfile(3, 2, 2) })
}

func TestRandomOrthoIsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, sh := range []struct{ m, n int }{{10, 10}, {50, 7}, {200, 33}} {
		q := RandomOrtho(rng, sh.m, sh.n)
		g := mat.NewDense(sh.n, sh.n)
		blas.Gram(parallel.Default, g, q)
		for i := 0; i < sh.n; i++ {
			g.Set(i, i, g.At(i, i)-1)
		}
		if e := g.FrobeniusNorm(); e > 1e-13*math.Sqrt(float64(sh.n)) {
			t.Fatalf("%d×%d: ‖QᵀQ−I‖ = %g", sh.m, sh.n, e)
		}
	}
}

func TestRandomOrthoVaries(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := RandomOrtho(rng, 10, 3)
	b := RandomOrtho(rng, 10, 3)
	if mat.EqualApprox(a, b, 1e-10) {
		t.Fatal("two draws should differ")
	}
}

func TestWithSingularValuesRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	sv := []float64{4, 2, 1, 0.25}
	a := WithSingularValues(rng, 30, 4, sv)
	got := lapack.JacobiSVDValues(a)
	for i := range sv {
		if math.Abs(got[i]-sv[i])/sv[i] > 1e-10 {
			t.Fatalf("singular values %v, want %v", got, sv)
		}
	}
}

func TestGenerateMatchesPaperProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	m, n, r := 200, 12, 8
	sigma := 1e-6
	a := Generate(rng, m, n, r, sigma)
	got := lapack.JacobiSVDValues(a)
	want := SigmaProfile(n, r, sigma)
	for i := 0; i < r; i++ {
		if math.Abs(got[i]-want[i])/want[i] > 1e-8 {
			t.Fatalf("σ_%d = %g, want %g", i, got[i], want[i])
		}
	}
	// Trailing singular values should be near roundoff level.
	for i := r; i < n; i++ {
		if got[i] > 1e-12 {
			t.Fatalf("trailing σ_%d = %g, want ≈ 1e-16", i, got[i])
		}
	}
}

func TestGenerateCondition(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	a := GenerateWellConditioned(rng, 100, 6, 1e4)
	c := lapack.Cond2(a)
	if math.Abs(math.Log10(c)-4) > 0.1 {
		t.Fatalf("κ₂ = %g, want ≈ 1e4", c)
	}
	mustPanic(t, func() { GenerateWellConditioned(rng, 10, 2, 0.5) })
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(9)), 50, 5, 4, 1e-3)
	b := Generate(rand.New(rand.NewSource(9)), 50, 5, 4, 1e-3)
	if !mat.EqualApprox(a, b, 0) {
		t.Fatal("same seed must give the same matrix")
	}
}

func TestWithSingularValuesLengthPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	mustPanic(t, func() { WithSingularValues(rng, 10, 3, []float64{1, 2}) })
	mustPanic(t, func() { RandomOrtho(rng, 3, 5) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestKahan(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	k := Kahan(rng, 5, 1.2, 0)
	// Diagonal is sinⁱθ; strictly upper entries are −cosθ·sinⁱθ.
	s, c := math.Sin(1.2), math.Cos(1.2)
	for i := 0; i < 5; i++ {
		want := math.Pow(s, float64(i))
		if math.Abs(k.At(i, i)-want) > 1e-15 {
			t.Fatalf("diag %d = %g, want %g", i, k.At(i, i), want)
		}
		for j := i + 1; j < 5; j++ {
			if math.Abs(k.At(i, j)+c*want) > 1e-15 {
				t.Fatalf("K(%d,%d) = %g", i, j, k.At(i, j))
			}
		}
		for j := 0; j < i; j++ {
			if k.At(i, j) != 0 {
				t.Fatal("Kahan must be upper triangular")
			}
		}
	}
}

func TestKahanTallPreservesSingularValues(t *testing.T) {
	n := 10
	svSquare := lapack.JacobiSVDValues(Kahan(rand.New(rand.NewSource(99)), n, 1.1, 0))
	svTall := lapack.JacobiSVDValues(KahanTall(rand.New(rand.NewSource(99)), 60, n, 1.1, 0))
	for i := range svSquare {
		if math.Abs(svSquare[i]-svTall[i]) > 1e-10*(1+svSquare[0]) {
			t.Fatalf("σ_%d differs: %g vs %g", i, svSquare[i], svTall[i])
		}
	}
}
