package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrFlow enforces the error discipline of the run engine (harness), the
// CLI convention layer (cliutil), and the sweep-service stack built on
// them — the persistent result store (store), the HTTP daemon (serve) and
// the lbserve command — where a silently dropped error is a result that
// quietly never happened, or worse, one that was acknowledged to a client
// without being durable:
//
//   - no error value may be discarded: neither a bare call statement whose
//     callee returns an error, nor a blank-identifier assignment of an
//     error-typed value. Best-effort fmt printing (Fprintf to stderr and
//     friends) is exempt; everything else needs handling or a justified
//     //lbvet:errok directive.
//   - wrapping must preserve the chain: an error-typed argument to
//     fmt.Errorf must be formatted with %w, not %v/%s — otherwise
//     errors.Is/As stop working and a *RunError loses its structured
//     context (bench, policy, phase, cycle, snapshot) on the way up.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "discarded error values and chain-breaking error wrapping in harness/cliutil/store/serve/lbserve",
	Run:  runErrFlow,
}

// errFlowPackages are the packages under the error discipline, keyed by
// package name.
var errFlowPackages = map[string]bool{
	"harness": true,
	"cliutil": true,
	"store":   true,
	"serve":   true,
}

// errFlowPathSuffixes scope `package main` commands — whose package name is
// uselessly "main" — by import-path suffix.
var errFlowPathSuffixes = []string{
	"cmd/lbserve",
}

// errFlowScoped reports whether the package is under the error discipline.
func errFlowScoped(pkg *Package) bool {
	if errFlowPackages[pkg.Types.Name()] {
		return true
	}
	path := pkg.Types.Path()
	for _, suffix := range errFlowPathSuffixes {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

func runErrFlow(pass *Pass) {
	if !errFlowScoped(pass.Pkg) {
		return
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	info := pass.Pkg.Info

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					checkDiscardedCall(pass, info, errIface, call, st)
				}
			case *ast.DeferStmt:
				checkDiscardedCall(pass, info, errIface, st.Call, st)
			case *ast.GoStmt:
				checkDiscardedCall(pass, info, errIface, st.Call, st)
			case *ast.AssignStmt:
				checkBlankDiscard(pass, info, errIface, st)
			case *ast.CallExpr:
				checkErrorfWrap(pass, info, errIface, st)
			}
			return true
		})
	}
}

// checkDiscardedCall flags a call statement whose results include an error
// nobody looks at.
func checkDiscardedCall(pass *Pass, info *types.Info, errIface *types.Interface, call *ast.CallExpr, stmt ast.Node) {
	tv, ok := info.Types[call]
	if !ok {
		return
	}
	errAt := -1
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type(), errIface) {
				errAt = i
			}
		}
	default:
		if isErrorType(tv.Type, errIface) {
			errAt = 0
		}
	}
	if errAt < 0 {
		return
	}
	if bestEffortPrint(info, call) || neverFails(info, call) {
		return
	}
	if pass.Pkg.errOKAt(pass.Fset, stmt) {
		return
	}
	pass.Reportf(stmt.Pos(),
		"error result of %s is discarded: a dropped error here is a run that silently never happened — handle it or justify with //lbvet:errok",
		callLabel(call))
}

// checkBlankDiscard flags `_ = err` and `x, _ := f()` where the blanked
// position is error-typed.
func checkBlankDiscard(pass *Pass, info *types.Info, errIface *types.Interface, st *ast.AssignStmt) {
	blankErr := func(lhs ast.Expr, t types.Type) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || t == nil || !isErrorType(t, errIface) {
			return
		}
		if pass.Pkg.errOKAt(pass.Fset, st) {
			return
		}
		pass.Reportf(st.Pos(),
			"error value discarded through the blank identifier: handle it or justify with //lbvet:errok")
	}
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			blankErr(lhs, info.TypeOf(st.Rhs[i]))
		}
		return
	}
	// Multi-value form: a, _ := f().
	if len(st.Rhs) != 1 {
		return
	}
	tuple, ok := info.TypeOf(st.Rhs[0]).(*types.Tuple)
	if !ok || tuple.Len() != len(st.Lhs) {
		return
	}
	for i, lhs := range st.Lhs {
		blankErr(lhs, tuple.At(i).Type())
	}
}

// checkErrorfWrap flags fmt.Errorf calls that format an error-typed
// argument with a verb other than %w.
func checkErrorfWrap(pass *Pass, info *types.Info, errIface *types.Interface, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	if pn, ok := info.Uses[pkgID].(*types.PkgName); !ok || pn.Imported().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	ftv, ok := info.Types[call.Args[0]]
	if !ok || ftv.Value == nil || ftv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(ftv.Value)
	verbs := formatVerbs(format)
	for vi, verb := range verbs {
		argIdx := 1 + vi
		if argIdx >= len(call.Args) || verb == 'w' {
			continue
		}
		at := info.TypeOf(call.Args[argIdx])
		if at == nil || !isErrorType(at, errIface) {
			continue
		}
		if pass.Pkg.errOKAt(pass.Fset, call) {
			continue
		}
		pass.Reportf(call.Args[argIdx].Pos(),
			"error wrapped with %%%c breaks the chain: errors.Is/As and *RunError context stop working upstream — use %%w",
			verb)
	}
}

// formatVerbs returns the verb consuming each successive variadic argument
// of a fmt format string ('*' width/precision markers consume an argument
// of their own and appear as '*').
func formatVerbs(format string) []rune {
	var out []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Flags, width, precision; '*' consumes an argument.
		for i < len(format) {
			c := format[i]
			if strings.ContainsRune("+-# 0.", rune(c)) || c >= '0' && c <= '9' {
				i++
				continue
			}
			if c == '*' {
				out = append(out, '*')
				i++
				continue
			}
			break
		}
		if i < len(format) {
			out = append(out, rune(format[i]))
		}
	}
	return out
}

// bestEffortPrint exempts the fmt print family: diagnostics to a terminal
// or an already-flushing writer, where the error is unactionable.
func bestEffortPrint(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[pkgID].(*types.PkgName)
	if !ok || pn.Imported().Path() != "fmt" {
		return false
	}
	switch sel.Sel.Name {
	case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
		return true
	}
	return false
}

// neverFails exempts methods whose error result is documented to always be
// nil: strings.Builder and bytes.Buffer grow in memory and only carry the
// error to satisfy io.Writer.
func neverFails(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

func isErrorType(t types.Type, errIface *types.Interface) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errIface)
}

func callLabel(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return shortExpr(fun.X) + "." + fun.Sel.Name
	}
	return "call"
}

// shortExpr renders an lvalue for a diagnostic without a FileSet (positions
// carry the location; this is just the label).
func shortExpr(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return shortExpr(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + shortExpr(x.X)
	case *ast.ParenExpr:
		return "(" + shortExpr(x.X) + ")"
	case *ast.IndexExpr:
		return shortExpr(x.X) + "[...]"
	case *ast.SliceExpr:
		return shortExpr(x.X) + "[...]"
	case *ast.UnaryExpr:
		return x.Op.String() + shortExpr(x.X)
	}
	return "<expr>"
}
