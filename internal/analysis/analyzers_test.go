package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runFixture loads testdata/src/<name> as its own module, runs the given
// analyzers over every package in it, and checks the diagnostics against
// the fixture's `// want "regexp" ...` comments: every expectation must be
// matched by a diagnostic on its line, and every diagnostic must be
// expected.
func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadPatterns(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("load %s: %v", fixture, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", fixture)
	}

	type expectation struct {
		re  *regexp.Regexp
		raw string
		hit bool
	}
	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := loader.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, raw := range splitWant(t, pos, rest) {
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", key, raw, err)
						}
						wants[key] = append(wants[key], &expectation{re: re, raw: raw})
					}
				}
			}
		}
	}

	diags := Run(loader.Fset, pkgs, analyzers)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.raw)
			}
		}
	}
}

// splitWant parses the `"re" "re"` or backquoted forms of a want comment.
func splitWant(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern %q", pos, s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			rest := s[1:]
			end := strings.IndexByte(rest, '"')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern %q", pos, s)
			}
			unq, err := strconv.Unquote(s[:end+2])
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", pos, s, err)
			}
			out = append(out, unq)
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s: want patterns must be quoted or backquoted, got %q", pos, s)
		}
	}
	return out
}

func TestMapRangeFixture(t *testing.T)  { runFixture(t, "maprange", MapRange) }
func TestNonDetermFixture(t *testing.T) { runFixture(t, "nondeterm", NonDeterm) }
func TestStatsFlowFixture(t *testing.T) { runFixture(t, "statsflow", StatsFlow) }
func TestFloatSumFixture(t *testing.T)  { runFixture(t, "floatsum", FloatSum) }
func TestFingerprintBad(t *testing.T)   { runFixture(t, "fingerprintbad", Fingerprint) }
func TestFingerprintGood(t *testing.T)  { runFixture(t, "fingerprintgood", Fingerprint) }
func TestNoPanicFixture(t *testing.T)   { runFixture(t, "nopanic", NoPanic) }
func TestErrFlowFixture(t *testing.T)   { runFixture(t, "errflow", ErrFlow) }

// TestByName covers the analyzer-subset resolver.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("maprange, floatsum")
	if err != nil || len(two) != 2 || two[0] != MapRange || two[1] != FloatSum {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName(bogus) should fail")
	}
}

// TestDirectiveAttachment pins the two sanctioned directive placements:
// trailing on the loop line, and the last line of a comment group directly
// above — but not a directive separated by a blank line.
func TestDirectiveAttachment(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module directive\n\ngo 1.22\n")
	write("sim.go", `package sim

type s struct{ m map[int]int }

func (x *s) detached() []int {
	var out []int
	//lbvet:ordered stale justification

	for k := range x.m {
		out = append(out, k)
	}
	return out
}
`)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(loader.Fset, pkgs, []*Analyzer{MapRange})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "range over map") {
		t.Fatalf("blank-line-separated directive should not attach; got %v", diags)
	}
}

// TestLoaderRejectsOutsideModule pins the loader's module boundary.
func TestLoaderRejectsOutsideModule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadDir(t.TempDir()); err == nil {
		t.Fatal("LoadDir outside the module should fail")
	}
}
