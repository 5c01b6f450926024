package main

import (
	"bytes"
	"io"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/cliutil"
)

func TestExitCodeUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "nonsense"},
		{}, // one of -fig/-all/-list required
		// A negative run length; -timeout bounds the runs should they start.
		{"-fig", "fig1", "-windows", "-3", "-timeout", "1ns"},
		{"-badflag"},
	} {
		var stderr bytes.Buffer
		err := run(args, io.Discard, &stderr)
		if code := cliutil.Exit(&stderr, "lbfig", err); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	err := run([]string{"-h"}, io.Discard, io.Discard)
	if code := cliutil.Exit(io.Discard, "lbfig", err); code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
}
