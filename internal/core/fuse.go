package core

import "os"

// fuseDisabledEnv gates the fused permute→TRSM→Gram streaming path
// (blas.PermTrsmGramFused) behind the TSQRCP_NO_FUSE environment
// variable, read once at startup: any non-empty value forces every
// factorization in the process onto the unfused path. This is the A/B
// knob the bench drivers document in EXPERIMENTS.md — the fused and
// unfused paths agree to ULP level, so the only observable difference is
// DRAM traffic.
var fuseDisabledEnv = os.Getenv("TSQRCP_NO_FUSE") != ""

// FuseEnabled reports whether the fused streaming pass is in use: on by
// default, off when TSQRCP_NO_FUSE is set in the environment. Every
// pivoting pass but the last is fused with the next iteration's Gram; the
// last one has no next Gram and runs unfused (the first Gram is a plain
// Gram sweep, not a pivoting pass). Algorithms also run unfused whenever
// a custom GramFunc is supplied (e.g. the distributed Allreduce Gram),
// whose reduction the fused kernel cannot replicate.
func FuseEnabled() bool { return !fuseDisabledEnv }
