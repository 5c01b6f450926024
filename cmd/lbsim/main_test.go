package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out, io.Discard)
	return out.String(), err
}

func TestList(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"benchmarks (Table 2):", "S2", "schemes:", "linebacker"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunBaseline(t *testing.T) {
	out, err := runCLI(t, "-bench", "S2", "-scheme", "baseline", "-windows", "1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"benchmark", "scheme           Baseline", "cycles", "IPC"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

func TestRunWithCheck(t *testing.T) {
	if _, err := runCLI(t, "-bench", "S2", "-scheme", "vc", "-windows", "2", "-check"); err != nil {
		t.Fatal(err)
	}
}

func TestTimeline(t *testing.T) {
	out, err := runCLI(t, "-bench", "S2", "-scheme", "baseline", "-windows", "2", "-timeline")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "window  IPC") {
		t.Errorf("timeline header missing in:\n%s", out)
	}

	// -windows 0 runs to completion with or without the timeline: on a
	// grid small enough to finish, both print the same totals.
	kernel := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(kernel, []byte(`{
	  "name": "tiny",
	  "loads": [{"pattern": "streaming", "scope": "per-warp"}],
	  "compute_per_load": 2, "compute_latency": 8,
	  "iterations": 1, "warps_per_cta": 8, "regs_per_thread": 24, "grid_ctas": 8
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	plain, err := runCLI(t, "-kernel", kernel, "-scheme", "baseline", "-windows", "0")
	if err != nil {
		t.Fatal(err)
	}
	timed, err := runCLI(t, "-kernel", kernel, "-scheme", "baseline", "-windows", "0", "-timeline")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cycles", "instructions"} {
		want, got := statLine(plain, field), statLine(timed, field)
		if want == "" || strings.HasSuffix(want, " 0") {
			t.Fatalf("run to completion printed %q for %s:\n%s", want, field, plain)
		}
		if got != want {
			t.Errorf("-timeline -windows 0 printed %q, want %q", got, want)
		}
	}

	// The grid completes inside the first of two windows: that window's
	// IPC is over the cycles it simulated, so it equals the run's IPC, and
	// no window follows it.
	short, err := runCLI(t, "-kernel", kernel, "-scheme", "baseline", "-windows", "2", "-timeline")
	if err != nil {
		t.Fatal(err)
	}
	rows := timelineRows(short)
	ipc := strings.Fields(statLine(short, "IPC"))
	if len(rows) != 1 || len(ipc) != 2 || len(rows[0]) < 2 || rows[0][1] != ipc[1] {
		t.Errorf("-timeline -windows 2 on a one-window grid printed rows %v for run %v, want one row at the run's IPC:\n%s",
			rows, ipc, short)
	}
}

// timelineRows returns the fields of each -timeline row.
func timelineRows(out string) [][]string {
	var rows [][]string
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "window  IPC"):
			in = true
		case line == "":
			in = false
		case in:
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}

// statLine returns the first line of a stat block that starts with field.
func statLine(out, field string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, field+" ") {
			return line
		}
	}
	return ""
}

func TestErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "NOPE"},
		{"-scheme", "nonsense"},
		{"-badflag"},
	} {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
