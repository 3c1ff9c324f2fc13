package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// profileStop, when non-nil, finishes profiling: it stops the CPU
// profile and/or writes the heap profile. main runs it after the
// subcommand returns, success or failure.
var profileStop func() error

// startProfiles begins CPU profiling and/or arranges a heap snapshot at
// exit, per the -cpuprofile/-memprofile flags. Empty paths are no-ops.
//
// Both profiles reach their destination atomically. The heap snapshot
// is rendered at stop time, so it goes straight through
// writeFileAtomic; the CPU profile must stream while the command
// runs, so it streams into a temp file in the destination directory and
// is fsync+renamed into place at stop — a crash mid-run leaves only the
// temp file, never a truncated profile under the requested name.
func startProfiles(cpuPath, memPath string) error {
	if cpuPath == "" && memPath == "" {
		return nil
	}
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.CreateTemp(filepath.Dir(cpuPath), "."+filepath.Base(cpuPath)+".tmp-*")
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
		cpuFile = f
	}
	profileStop = func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			tmpName := cpuFile.Name()
			if err := cpuFile.Sync(); err != nil {
				cpuFile.Close()
				os.Remove(tmpName)
				return err
			}
			if err := cpuFile.Close(); err != nil {
				os.Remove(tmpName)
				return err
			}
			if err := os.Rename(tmpName, cpuPath); err != nil {
				os.Remove(tmpName)
				return err
			}
			fmt.Fprintf(os.Stderr, "xylem: wrote CPU profile to %s\n", cpuPath)
		}
		if memPath != "" {
			runtime.GC() // flush garbage so the snapshot shows live heap
			if err := writeFileAtomic(memPath, func(w io.Writer) error {
				return pprof.Lookup("heap").WriteTo(w, 0)
			}); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "xylem: wrote heap profile to %s\n", memPath)
		}
		return nil
	}
	return nil
}

// stopProfiles runs the pending profile finisher, if any.
func stopProfiles() {
	if profileStop == nil {
		return
	}
	if err := profileStop(); err != nil {
		fmt.Fprintln(os.Stderr, "xylem: profile:", err)
	}
	profileStop = nil
}
