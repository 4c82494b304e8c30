//go:build debugchecks

package mat

// DebugChecks gates the sanitizer assertions in this package and in the
// kernel packages that import it. Build with `-tags debugchecks` to turn
// the header-consistency guards and the non-finite scans on.
const DebugChecks = true
