package trace

import (
	"os"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// Profiling hooks for the command-line tools: a CPU profile and a
// runtime execution trace, each written to a file. These wrap the stdlib
// so every cmd exposes the same flags without repeating the lifecycle
// plumbing.

// startCPUProfile begins a CPU profile to path and returns the function
// that stops it and closes the file.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// StartProfiles starts a CPU profile to cpuProfile and a runtime
// execution trace to rtracePath (each skipped when empty) and returns
// one stop function for the caller to defer.
func StartProfiles(cpuProfile, rtracePath string) (stop func(), err error) {
	var stops []func()
	if cpuProfile != "" {
		s, err := startCPUProfile(cpuProfile)
		if err != nil {
			return nil, err
		}
		stops = append(stops, s)
	}
	if rtracePath != "" {
		s, err := startRuntimeTrace(rtracePath)
		if err != nil {
			for _, f := range stops {
				f()
			}
			return nil, err
		}
		stops = append(stops, s)
	}
	return func() {
		for _, f := range stops {
			f()
		}
	}, nil
}

// startRuntimeTrace begins a runtime execution trace (go tool trace) to
// path and returns the function that stops it and closes the file.
func startRuntimeTrace(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := rtrace.Start(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		rtrace.Stop()
		f.Close()
	}, nil
}
