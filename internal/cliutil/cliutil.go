// Package cliutil fixes the exit-code and error-reporting conventions of
// the repository's commands:
//
//	0  success (including -h/-help)
//	1  run failure — a simulation failed, a file could not be read, ...
//	2  usage error — bad flags, unknown benchmark/scheme/experiment
//
// Run-engine failures (*harness.RunError) print their full diagnostic —
// machine-state snapshot and, for panics, the recovered stack — so a
// failed overnight sweep leaves enough on stderr to debug from.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/linebacker-sim/linebacker/internal/harness"
)

// ErrUsage marks a command-line mistake; Exit maps it to status 2.
var ErrUsage = errors.New("usage error")

// Usagef builds a usage error (exit status 2).
func Usagef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUsage, fmt.Sprintf(format, args...))
}

// CheckWindows rejects a negative -windows run length as a usage error.
// The run length counts monitoring windows; 0 lifts the cap.
func CheckWindows(windows int) error {
	if windows < 0 {
		return Usagef("-windows %d: want a window count >= 0", windows)
	}
	return nil
}

// WrapParse classifies a flag.FlagSet.Parse error: -h/-help passes through
// (Exit turns it into success), anything else is a usage error. The flag
// package has already printed the message and usage text, so the wrapper
// is marked quiet.
func WrapParse(err error) error {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return fmt.Errorf("%w: %w%w", ErrUsage, err, errQuiet)
}

// errQuiet marks errors whose message has already been shown to the user.
var errQuiet = errors.New("")

// Exit renders err for the tool and returns the process exit status. A nil
// error and -h/-help return 0 and print nothing.
func Exit(stderr io.Writer, tool string, err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errQuiet):
	default:
		var re *harness.RunError
		if errors.As(err, &re) {
			fmt.Fprintf(stderr, "%s: %s\n", tool, re.Detail())
		} else {
			fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		}
	}
	if errors.Is(err, ErrUsage) {
		return 2
	}
	return 1
}

// StartProfiles starts CPU profiling to cpuPath and arranges a heap profile
// at stopPath time to memPath; either path may be empty to skip that
// profile. The returned stop function finishes both and must be called
// exactly once (typically deferred) — it reports the first error hit while
// finalising, which callers should surface but not fail the run over.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close() //lbvet:errok — the StartCPUProfile error is the one the caller acts on; nothing was written yet
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var ferr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && ferr == nil {
				ferr = fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if ferr == nil {
					ferr = fmt.Errorf("mem profile: %w", err)
				}
				return ferr
			}
			runtime.GC() // materialise final live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil && ferr == nil {
				ferr = fmt.Errorf("mem profile: %w", err)
			}
			if err := f.Close(); err != nil && ferr == nil {
				ferr = fmt.Errorf("mem profile: %w", err)
			}
		}
		return ferr
	}, nil
}
