package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/mat"
	"repro/testmat"
)

func TestOrthogonalityOfExactQ(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	q := testmat.RandomOrtho(rng, 100, 10)
	if e := Orthogonality(q); e > 1e-14 {
		t.Fatalf("orthogonality of orthonormal Q = %g", e)
	}
	// Scale one column: orthogonality must degrade.
	bad := q.Clone()
	for i := 0; i < bad.Rows; i++ {
		bad.Set(i, 0, 2*bad.At(i, 0))
	}
	if e := Orthogonality(bad); e < 0.1 {
		t.Fatalf("orthogonality of skewed Q = %g, want large", e)
	}
}

func TestResidualExact(t *testing.T) {
	// A = Q·R with a known permutation: residual must be ~0; breaking R
	// must raise it.
	rng := rand.New(rand.NewSource(92))
	m, n := 60, 6
	q := testmat.RandomOrtho(rng, m, n)
	r := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, float64(n-i))
		for j := i + 1; j < n; j++ {
			r.Set(i, j, rng.NormFloat64())
		}
	}
	perm := mat.Perm{3, 1, 4, 0, 5, 2}
	// Build A such that A·P = Q·R, i.e. A = Q·R·P⁻¹.
	qr := mat.NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l <= j; l++ {
				s += q.At(i, l) * r.At(l, j)
			}
			qr.Set(i, j, s)
		}
	}
	a := mat.NewDense(m, n)
	mat.PermuteCols(a, qr, perm.Inverse())
	if res := Residual(a, q, r, perm); res > 1e-14 {
		t.Fatalf("residual of exact factorization = %g", res)
	}
	r.Set(0, 0, r.At(0, 0)+1)
	if res := Residual(a, q, r, perm); res < 1e-3 {
		t.Fatalf("residual after perturbation = %g, want large", res)
	}
}

func TestResidualPermLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Residual(mat.NewDense(4, 3), mat.NewDense(4, 3), mat.NewDense(3, 3), mat.Perm{0, 1})
}

func TestCondAndNormBlocks(t *testing.T) {
	r := mat.NewDense(4, 4)
	r.Set(0, 0, 8)
	r.Set(1, 1, 2)
	r.Set(2, 2, 1e-3)
	r.Set(3, 3, 1e-5)
	if c := CondR11(r, 2); math.Abs(c-4) > 1e-10 {
		t.Fatalf("κ₂(R₁₁) = %v, want 4", c)
	}
	if nr := NormR22(r, 2); math.Abs(nr-1e-3)/1e-3 > 1e-10 {
		t.Fatalf("‖R₂₂‖₂ = %v, want 1e-3", nr)
	}
	if nr := NormR22(r, 4); nr != 0 {
		t.Fatalf("empty R₂₂ norm = %v, want 0", nr)
	}
}

func TestClassifyPivots(t *testing.T) {
	ref := mat.Perm{0, 1, 2, 3, 4}
	got := mat.Perm{0, 1, 3, 2, 4}
	out := ClassifyPivots(got, ref, 4, 5)
	want := []PivotOutcome{PivotCorrect, PivotCorrect, PivotIncorrect, PivotIncorrect, PivotNotComputed}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("outcome[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if out[0].String() != "✓" || out[2].String() != "✗" || out[4].String() != "-" {
		t.Fatal("String() symbols wrong")
	}
	if PivotOutcome(99).String() != "?" {
		t.Fatal("unknown outcome should print ?")
	}
	// upto clamps.
	if len(ClassifyPivots(got, ref, 5, 10)) != 5 {
		t.Fatal("upto must clamp to len(ref)")
	}
}

func TestCountCorrectPrefix(t *testing.T) {
	if n := CountCorrectPrefix(mat.Perm{1, 2, 3}, mat.Perm{1, 2, 4}); n != 2 {
		t.Fatalf("prefix = %d, want 2", n)
	}
	if n := CountCorrectPrefix(mat.Perm{1, 2}, mat.Perm{1, 2, 4}); n != 2 {
		t.Fatalf("short prefix = %d, want 2", n)
	}
	if !AllCorrect(mat.Perm{5, 6, 7}, mat.Perm{5, 6, 7}, 3) {
		t.Fatal("AllCorrect false negative")
	}
	if AllCorrect(mat.Perm{5, 6}, mat.Perm{5, 6, 7}, 3) {
		t.Fatal("AllCorrect beyond length must be false")
	}
}
