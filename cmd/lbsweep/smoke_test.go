package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/cliutil"
	"github.com/linebacker-sim/linebacker/internal/harness"
)

func TestExitCodeUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nonsense"},
		{"-bench", "NOPE"},
		{"-mode", "cache", "-scheme", "nonsense"},
		{"-chaos", "panic:sm"},
		// A negative run length; -timeout bounds the sweep should it start.
		{"-mode", "vtt", "-windows", "-3", "-timeout", "1ns"},
		{"-badflag"},
	} {
		var stderr bytes.Buffer
		err := run(args, io.Discard, &stderr)
		if code := cliutil.Exit(&stderr, "lbsweep", err); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestChaosPanicFailsSweep(t *testing.T) {
	var stderr bytes.Buffer
	err := run([]string{"-mode", "vtt", "-bench", "S2", "-windows", "2",
		"-chaos", "panic:sm:1000"}, io.Discard, &stderr)
	var re *harness.RunError
	if !errors.As(err, &re) {
		t.Fatalf("chaos panic returned %T, want *harness.RunError: %v", err, err)
	}
	if !errors.Is(err, harness.ErrPanic) {
		t.Fatalf("error chain missing ErrPanic: %v", err)
	}
	if code := cliutil.Exit(&stderr, "lbsweep", err); code != 1 {
		t.Fatalf("chaos panic exit %d, want 1", code)
	}
	if out := stderr.String(); !strings.Contains(out, "machine state at abort") {
		t.Errorf("stderr missing machine-state snapshot:\n%s", out)
	}
}

func TestStoreResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep.d")
	args := []string{"-mode", "vtt", "-bench", "S2", "-windows", "1", "-store", dir}

	var out1, err1 bytes.Buffer
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("first sweep failed: %v", err)
	}
	if !strings.Contains(err1.String(), "0 result(s) loaded") {
		t.Fatalf("fresh store claimed loaded results:\n%s", err1.String())
	}

	// Second invocation: every point must come from the store, with the
	// load report on stderr and byte-identical sweep output.
	var out2, err2 bytes.Buffer
	if err := run(args, &out2, &err2); err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	var loaded int
	if _, err := fmt.Sscanf(strings.TrimPrefix(err2.String(), "lbsweep: store "+dir+": "),
		"%d result(s) loaded", &loaded); err != nil || loaded < 1 {
		t.Fatalf("no load report with >=1 loaded result on stderr (loaded=%d, %v):\n%s", loaded, err, err2.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("resumed sweep output diverged:\n--- first\n%s--- second\n%s", out1.String(), out2.String())
	}
}

func TestStoreWriteFailureExitsNonZero(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions, so segment creation cannot be made to fail")
	}
	// A read-only store directory with a writable locks/ subdirectory:
	// leases still work, but no segment can be created, so every commit
	// fails while the sweep itself succeeds.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "locks"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })

	var stderr bytes.Buffer
	err := run([]string{"-mode", "vtt", "-bench", "S2", "-windows", "1", "-store", dir}, io.Discard, &stderr)
	if code := cliutil.Exit(&stderr, "lbsweep", err); code != 1 {
		t.Fatalf("failed checkpoint exit %d, want 1 (err %v)", code, err)
	}
	if !strings.Contains(stderr.String(), "lbsweep: store: ") {
		t.Errorf("stderr missing the store write error:\n%s", stderr.String())
	}
}
