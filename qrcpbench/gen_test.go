package main

import (
	"math"
	"testing"

	"repro/internal/lapack"
)

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a := checksum(generate(structureSeed, 3, 2048, 16, 12, 1e-12))
	if b := checksum(generate(structureSeed, 3, 2048, 16, 12, 1e-12)); a != b {
		t.Fatalf("seed 3 gave checksums %016x and %016x", a, b)
	}
	if c := checksum(generate(structureSeed, 4, 2048, 16, 12, 1e-12)); c == a {
		t.Fatalf("seeds 3 and 4 gave the same checksum %016x", a)
	}
}

// At m/n ≥ 512 the singular values of (G/√m)·diag(σ)·Vᵀ lie within
// σ_i·[σ_min(G/√m), σ_max(G/√m)] ⊂ σ_i·(1 ± ~5 %).
func TestGenerateFollowsSigmaProfile(t *testing.T) {
	const m, n, r = 4096, 8, 8
	sv := sigmaProfile(n, r, 1e-6)
	for seed := int64(1); seed <= 3; seed++ {
		got := lapack.JacobiSVDValues(generate(structureSeed, seed, m, n, r, 1e-6))
		for i, s := range got {
			if rel := math.Abs(s-sv[i]) / sv[i]; rel > 0.06 {
				t.Errorf("seed %d: σ_%d = %.6g, profile %.6g (%.1f %% off)", seed, i+1, s, sv[i], 100*rel)
			}
		}
	}
}

func TestSigmaProfileIsEq17(t *testing.T) {
	sv := sigmaProfile(64, 48, 1e-12)
	if sv[0] != 1 || math.Abs(sv[47]-1e-12)/1e-12 > 1e-12 || sv[48] != trailingSigma || sv[63] != trailingSigma {
		t.Fatalf("profile endpoints %g %g %g %g", sv[0], sv[47], sv[48], sv[63])
	}
	for i := 1; i < 48; i++ {
		if sv[i] >= sv[i-1] {
			t.Fatalf("profile not decreasing at %d", i)
		}
	}
}
