package mat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func randPerm(rng *rand.Rand, n int) Perm {
	p := IdentityPerm(n)
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestIdentityPerm(t *testing.T) {
	p := IdentityPerm(5)
	if !p.IsValid() {
		t.Fatal("identity perm invalid")
	}
	for i, v := range p {
		if v != i {
			t.Fatalf("p[%d] = %d", i, v)
		}
	}
}

func TestIsValid(t *testing.T) {
	if (Perm{0, 0, 1}).IsValid() {
		t.Fatal("duplicate should be invalid")
	}
	if (Perm{0, 3, 1}).IsValid() {
		t.Fatal("out of range should be invalid")
	}
	if !(Perm{2, 0, 1}).IsValid() {
		t.Fatal("valid perm rejected")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		p := randPerm(rng, n)
		inv := p.Inverse()
		if !EqualApprox(mulRef(permMatrix(p), permMatrix(inv)), Identity(n), 0) {
			t.Fatalf("P·P⁻¹ not identity for p=%v inv=%v", p, inv)
		}
	}
}

func TestPermuteCols(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	p := Perm{2, 0, 1}
	dst := NewDense(2, 3)
	PermuteCols(dst, a, p)
	want := []float64{3, 1, 2, 6, 4, 5}
	for i, v := range dst.Data {
		if v != want[i] {
			t.Fatalf("PermuteCols data[%d] = %v, want %v", i, v, want[i])
		}
	}
	mustPanic(t, func() { PermuteCols(NewDense(2, 2), a, p) })
	mustPanic(t, func() { PermuteCols(dst, a, Perm{0, 1}) })
}

func TestPermuteColsInPlaceMatchesOutOfPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(6)
		n := 1 + rng.Intn(9)
		a := NewDense(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		p := randPerm(rng, n)
		want := NewDense(m, n)
		PermuteCols(want, a, p)
		got := a.Clone()
		PermuteColsInPlaceEngine(parallel.Default, got, p)
		if !EqualApprox(got, want, 0) {
			t.Fatalf("in-place != out-of-place for p=%v", p)
		}
	}
}

func TestPermuteColsInPlaceEngineWidths(t *testing.T) {
	// Large enough to cross permParallelElems so the row blocks actually
	// fan out across pool workers; the gather must be identical to the
	// out-of-place reference at every width, including on a strided view.
	rng := rand.New(rand.NewSource(4))
	const m, n = 20000, 8
	backing := NewDense(m, n+3)
	for i := range backing.Data {
		backing.Data[i] = rng.NormFloat64()
	}
	a := backing.Slice(0, m, 1, 1+n)
	p := randPerm(rng, n)
	want := NewDense(m, n)
	PermuteCols(want, a, p)
	for _, w := range []int{1, 2, 8} {
		got := a.Clone()
		PermuteColsInPlaceEngine(parallel.NewEngine(w), got, p)
		if !EqualApprox(got, want, 0) {
			t.Fatalf("width %d: parallel in-place gather != out-of-place", w)
		}
	}
}

func TestPermMatrixOrthogonal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		p := randPerm(rng, n)
		pm := permMatrix(p)
		// PᵀP should be the identity.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += pm.At(k, i) * pm.At(k, j)
				}
				want := 0.0
				if i == j {
					want = 1.0
				}
				if s != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPermuteColsAgainstMatrixProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 4, 5
	a := NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	p := randPerm(rng, n)
	want := mulRef(a, permMatrix(p))
	got := NewDense(m, n)
	PermuteCols(got, a, p)
	if !EqualApprox(got, want, 1e-15) {
		t.Fatal("PermuteCols disagrees with dense A·P")
	}
}

// permMatrix materializes p as the dense permutation matrix P, with a 1
// in row p[j] of column j.
func permMatrix(p Perm) *Dense {
	n := len(p)
	m := NewDense(n, n)
	for j, v := range p {
		m.Set(v, j, 1)
	}
	return m
}

// mulRef is the textbook product a·b, the oracle the permutation tests
// compare against.
func mulRef(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}
