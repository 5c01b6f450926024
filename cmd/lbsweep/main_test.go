package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker"
	"github.com/linebacker-sim/linebacker/internal/harness"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out, io.Discard)
	return out.String(), err
}

// TestSWLSweep checks that the Best-SWL line is the figures' oracle
// (harness.Runner.BestSWL), not the best of every limit the sweep prints:
// on AT at 2 windows the two pick different limits.
func TestSWLSweep(t *testing.T) {
	for _, tc := range []struct {
		bench   string
		windows int
	}{{"S2", 1}, {"AT", 2}} {
		out, err := runCLI(t, "-mode", "swl", "-bench", tc.bench, "-windows", strconv.Itoa(tc.windows))
		if err != nil {
			t.Fatal(err)
		}
		lim, res := harness.NewRunner(linebacker.FastConfig(), tc.windows).MustBestSWL(tc.bench)
		want := fmt.Sprintf("Best-SWL: limit %d (IPC %.3f)\n", lim, res.IPC())
		if !strings.Contains(out, want) {
			t.Errorf("%s sweep output lacks the oracle line %q:\n%s", tc.bench, want, out)
		}
	}
}

func TestVTTSweep(t *testing.T) {
	out, err := runCLI(t, "-mode", "vtt", "-bench", "S2", "-windows", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "VTT partition associativity sweep") {
		t.Errorf("missing sweep header:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nonsense"},
		{"-bench", "NOPE"},
		{"-mode", "cache", "-scheme", "nonsense"},
		{"-badflag"},
	} {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
