package analysis

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelectErrors covers every rejection path of the run-set resolver.
func TestSelectErrors(t *testing.T) {
	cases := []struct {
		names, wantErr string
	}{
		{"maprange,maprange", "duplicate analyzer"},
		{"maprange, maprange", "duplicate analyzer"},
		{"bogus", `unknown analyzer "bogus" in -analyzers`},
		{"maprange,", `unknown analyzer "" in -analyzers`},
	}
	for _, c := range cases {
		if _, err := Select(c.names); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Select(%q) = %v, want error containing %q", c.names, err, c.wantErr)
		}
	}
}

// TestSelectFromCorruptRegistry pins the duplicate-name registry guard.
func TestSelectFromCorruptRegistry(t *testing.T) {
	reg := []*Analyzer{{Name: "dup"}, {Name: "dup"}}
	if _, err := selectFrom(reg, ""); err == nil || !strings.Contains(err.Error(), "registry is corrupt") {
		t.Fatalf("duplicate registry names should fail, got %v", err)
	}
}

// TestRelativize pins module-relative rewriting: inside-root paths become
// slash-relative, outside-root and already-relative paths stay untouched,
// and the input slice is not mutated.
func TestRelativize(t *testing.T) {
	root := filepath.Join(string(filepath.Separator), "mod")
	in := []Diagnostic{
		{Pos: token.Position{Filename: filepath.Join(root, "internal", "sim", "a.go"), Line: 3}},
		{Pos: token.Position{Filename: filepath.Join(string(filepath.Separator), "elsewhere", "b.go")}},
		{Pos: token.Position{Filename: "already/relative.go"}},
	}
	out := Relativize(root, in)
	if out[0].Pos.Filename != "internal/sim/a.go" {
		t.Errorf("inside-root: got %q", out[0].Pos.Filename)
	}
	if out[1].Pos.Filename != in[1].Pos.Filename {
		t.Errorf("outside-root path rewritten to %q", out[1].Pos.Filename)
	}
	if out[2].Pos.Filename != "already/relative.go" {
		t.Errorf("relative path rewritten to %q", out[2].Pos.Filename)
	}
	if !filepath.IsAbs(in[0].Pos.Filename) {
		t.Error("Relativize mutated its input")
	}
}
