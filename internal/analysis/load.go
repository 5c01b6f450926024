package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks the module's packages without golang.org/x/tools: it
// parses sources with go/parser, resolves module-internal imports by
// walking the module tree, and delegates standard-library imports to the
// stdlib source importer. Test files are skipped — the determinism rules
// govern simulator code, and the loader stays free of external test
// package handling.
type Loader struct {
	Fset *token.FileSet

	rootDir    string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package // by import path
	loading    map[string]bool
}

// NewLoader builds a loader rooted at the directory containing go.mod.
// rootDir may point anywhere inside the module; the loader walks up to the
// module root.
func NewLoader(rootDir string) (*Loader, error) {
	abs, err := filepath.Abs(rootDir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		rootDir:    root,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.rootDir }

// findModule walks up from dir to the first go.mod and returns the module
// root and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mp := parseModulePath(string(data))
			if mp == "" {
				return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
			}
			return d, mp, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

func parseModulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// LoadPatterns loads the packages named by Go-style patterns relative to
// dir: "./..." (everything under dir), "./x/..." or plain directory paths.
// Directories without non-test Go files are skipped silently for `...`
// patterns and reported as errors for explicit ones.
func (l *Loader) LoadPatterns(dir string, patterns []string) ([]*Package, error) {
	dirs, err := resolvePatternDirs(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, d := range dirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// resolvePatternDirs expands Go-style package patterns relative to dir into
// absolute package directories: "./..." (everything under dir), "x/..." or
// plain directory paths.
func resolvePatternDirs(dir string, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "..." || pat == "./...":
			expanded, err := expandDirs(dir)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(dir, strings.TrimSuffix(pat, "/..."))
			expanded, err := expandDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		default:
			d := filepath.Join(dir, pat)
			info, err := os.Stat(d)
			if err != nil || !info.IsDir() {
				return nil, fmt.Errorf("analysis: %q is not a package directory", pat)
			}
			names, err := goSources(d)
			if err != nil {
				return nil, err
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("analysis: no Go files in %s", d)
			}
			add(d)
		}
	}
	return dirs, nil
}

// expandDirs returns every directory under root that contains non-test Go
// files, skipping testdata, vendor, hidden and underscore directories.
func expandDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		srcs, err := goSources(path)
		if err != nil {
			return err
		}
		if len(srcs) > 0 {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// goSources lists the non-test, non-hidden Go files of a directory.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// LoadDir loads and type-checks the package in dir (which must live inside
// the loader's module).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	rel, err := filepath.Rel(l.rootDir, dir)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.rootDir)
	}
	path := l.modulePath
	if rel != "." {
		path = l.modulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path)
}

// Import implements types.Importer: module-internal paths load from
// source; everything else goes to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in package %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	dir := filepath.Join(l.rootDir, filepath.FromSlash(rel))
	srcs, err := goSources(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %v", path, err)
	}
	if len(srcs) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}

	pkg := &Package{Path: path, Dir: dir,
		ordered:    map[string]map[int]bool{},
		panicOK:    map[string]map[int]bool{},
		eventBound: map[string]map[int]bool{},
		errOK:      map[string]map[int]bool{},
	}
	for _, src := range srcs {
		f, err := parser.ParseFile(l.Fset, src, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.ordered[src] = directiveLines(l.Fset, f, OrderedDirective)
		pkg.panicOK[src] = directiveLines(l.Fset, f, PanicDirective)
		pkg.eventBound[src] = directiveLines(l.Fset, f, EventBoundDirective)
		pkg.errOK[src] = directiveLines(l.Fset, f, ErrOKDirective)
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// directiveLines records the lines of a file that the given directive
// covers: the directive's own line (trailing-comment form) and the last
// line of its comment group (so a multi-line justification above a loop
// still attaches to it).
func directiveLines(fset *token.FileSet, f *ast.File, directive string) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, directive) {
				out[fset.Position(c.Pos()).Line] = true
				out[fset.Position(cg.End()).Line] = true
			}
		}
	}
	return out
}
