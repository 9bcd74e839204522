// Package profiling writes the pprof profiles behind the commands'
// -cpuprofile and -memprofile flags, so a developer can see where a
// sweep's time and memory went without a throwaway probe.
package profiling

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU starts a pprof CPU profile into path, unless path is empty;
// stop ends it and closes the file.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
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

// WriteHeap writes a pprof heap profile, after a GC, to path, unless
// path is empty.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
