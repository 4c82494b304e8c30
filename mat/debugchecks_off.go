//go:build !debugchecks

package mat

// DebugChecks gates the sanitizer assertions in this package and in the
// kernel packages that import it. In normal builds it is a false
// constant, so every guarded check is eliminated at compile time.
const DebugChecks = false
