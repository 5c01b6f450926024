package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/cliutil"
	"github.com/linebacker-sim/linebacker/internal/harness"
)

// exitCode runs the CLI and maps its error exactly as main does.
func exitCode(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	err := run(args, io.Discard, &stderr)
	return cliutil.Exit(&stderr, "lbsim", err), stderr.String()
}

func TestExitCodeUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "NOPE"},
		{"-scheme", "nonsense"},
		{"-chaos", "bogus:1"},
		{"-badflag"},
	} {
		if code, _ := exitCode(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestExitCodeSuccess(t *testing.T) {
	if code, msg := exitCode(t, "-bench", "S2", "-scheme", "baseline", "-windows", "1"); code != 0 {
		t.Fatalf("clean run exit %d, stderr:\n%s", code, msg)
	}
}

func TestChaosPanicExitsOneWithDiagnostics(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-bench", "S2", "-scheme", "baseline", "-windows", "2",
		"-chaos", "panic:sm:1000"}, io.Discard, &stderr)
	var re *harness.RunError
	if !errors.As(err, &re) {
		t.Fatalf("chaos panic returned %T, want *harness.RunError: %v", err, err)
	}
	if !errors.Is(err, harness.ErrPanic) {
		t.Fatalf("error chain missing ErrPanic: %v", err)
	}
	if code := cliutil.Exit(&stderr, "lbsim", err); code != 1 {
		t.Fatalf("chaos panic exit %d, want 1", code)
	}
	out := stderr.String()
	for _, want := range []string{"chaos: injected panic", "machine state at abort", "recovered stack"} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr missing %q:\n%s", want, out)
		}
	}
}

func TestTimeoutExitsOne(t *testing.T) {
	var stderr bytes.Buffer
	// -windows 0 runs to completion; a 1 ns budget cannot finish any bench.
	err := run([]string{"-bench", "S2", "-scheme", "baseline", "-windows", "0",
		"-timeout", "1ns"}, io.Discard, &stderr)
	if !errors.Is(err, harness.ErrTimeout) {
		t.Fatalf("error chain missing ErrTimeout: %v", err)
	}
	if code := cliutil.Exit(&stderr, "lbsim", err); code != 1 {
		t.Fatalf("timeout exit %d, want 1", code)
	}
}

// TestRecordWriteFailureExitsOne proves a trace that cannot be written
// fails the run instead of leaving a truncated file behind a zero exit.
func TestRecordWriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	code, msg := exitCode(t, "-bench", "S2", "-scheme", "baseline", "-windows", "1", "-record", "/dev/full")
	if code != 1 {
		t.Fatalf("-record /dev/full exit %d, want 1; stderr:\n%s", code, msg)
	}
	if !strings.Contains(msg, "writing trace") {
		t.Errorf("stderr does not name the trace write failure:\n%s", msg)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-h"}, io.Discard, &stderr)
	if code := cliutil.Exit(io.Discard, "lbsim", err); code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
}
