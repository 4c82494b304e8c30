//go:build race

package service

// raceEnabled reports whether the race detector is active. Allocation
// tests skip under -race: the instrumented sync.Pool intentionally drops
// puts at random, so recycling bounds cannot be asserted there.
const raceEnabled = true
