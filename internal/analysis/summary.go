package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the write-summary substrate of the skipcontract analyzer's
// closure layer. For every function declared in a package it computes which
// memory roots the function writes — receiver fields, the whole receiver
// and parameters — and closes the summaries transitively through
// same-package calls with a fixpoint over the package call graph.
//
// Precision model (DESIGN.md §11):
//
//   - Field granularity is the FIRST hop off the root: `s.trans.sent++`
//     writes field "trans". That is exactly the granularity SkipCycles
//     bodies use, so no precision is lost where it matters.
//   - Intra-function aliases are tracked flow-insensitively: after
//     `t := s.trans` or `sc := &s.warps[i].score`, writes through t/sc
//     attribute to the underlying field. Aliases obtained through call
//     results (`q := d.waiting(ch)`) are NOT tracked — writes through them
//     vanish, which is why mutating helpers that hide behind such aliases
//     must either be reached as calls (they are, via the call graph) or be
//     annotated //lbvet:eventbound.
//   - A callee that writes through its receiver or a pointer parameter
//     marks the caller's corresponding argument root as written, so
//     `s.pumpTransfer(t, cycle)` with `t := s.trans` writes "trans" and
//     `d.inflight.popRoot()` writes "inflight".
//   - Calls that cannot be resolved to a same-package declaration
//     (interface methods, cross-package calls, function values) contribute
//     nothing. skipcontract bounds that blindness by comparing two closures
//     over the SAME package.
//
// Each summary carries two closures: the full one (everything the function
// writes, used for the SkipCycles side) and the bounded one, which refuses
// to propagate through callees annotated //lbvet:eventbound (used for the
// OnCycle side — an event-bound helper's writes are excused by definition).

type rootKind uint8

const (
	rootNone  rootKind = iota // untracked local, call result, ...
	rootRecv                  // the method receiver itself
	rootField                 // a first-hop field of the receiver
	rootParam                 // a (pointer) parameter
)

type root struct {
	kind  rootKind
	field string // rootField: first-hop field name
	param int    // rootParam: parameter index
	obj   types.Object
}

// fieldOrigin records where a (possibly transitive) field write was first
// observed and through which callee it arrived ("" for a direct write).
type fieldOrigin struct {
	pos token.Pos
	via string
}

// callEdge is one syntactic call site with the caller-side roots of its
// receiver and arguments.
type callEdge struct {
	callee   *types.Func
	pos      token.Pos
	recvRoot root   // rootNone for plain function calls
	argRoots []root // positional arguments
}

// funcSummary is the per-function write summary.
type funcSummary struct {
	obj        *types.Func
	decl       *ast.FuncDecl
	recvType   string // named receiver type, "" for plain functions
	eventBound bool   // carries //lbvet:eventbound on its declaration

	// Direct observations.
	fieldW  map[string]fieldOrigin
	paramW  map[int]token.Pos
	recvW   bool // writes through the whole receiver (`*s = ...`)
	recvPos token.Pos
	calls   []callEdge

	// Fixpoint results. closed* includes every same-package callee;
	// bounded* stops at //lbvet:eventbound callees.
	closedFieldW  map[string]fieldOrigin
	boundedFieldW map[string]fieldOrigin
	closedParamW  map[int]bool
	boundedParamW map[int]bool
	closedRecvW   bool
	boundedRecvW  bool
}

// buildSummaries computes the closed write summaries of every function
// declared in pkg, keyed by its types.Func object.
func buildSummaries(fset *token.FileSet, pkg *Package) map[*types.Func]*funcSummary {
	sums := map[*types.Func]*funcSummary{}
	var order []*funcSummary // declaration order, for a deterministic fixpoint
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fs := collectFunc(fset, pkg, fd, obj)
			sums[obj] = fs
			order = append(order, fs)
		}
	}

	// Seed the closures from the direct observations.
	for _, fs := range order {
		fs.closedFieldW = map[string]fieldOrigin{}
		fs.boundedFieldW = map[string]fieldOrigin{}
		for k, v := range fs.fieldW {
			fs.closedFieldW[k] = v
			fs.boundedFieldW[k] = v
		}
		fs.closedParamW = map[int]bool{}
		fs.boundedParamW = map[int]bool{}
		for i := range fs.paramW {
			fs.closedParamW[i] = true
			fs.boundedParamW[i] = true
		}
		fs.closedRecvW = fs.recvW
		fs.boundedRecvW = fs.recvW
	}

	// Close over same-package calls. The sets only grow and are bounded by
	// (fields + params) per function, so the fixpoint terminates.
	for changed := true; changed; {
		changed = false
		for _, fs := range order {
			for _, c := range fs.calls {
				cs := sums[c.callee]
				if cs == nil {
					continue
				}
				if propagateCall(fs, cs, c, false) {
					changed = true
				}
				if !cs.eventBound && propagateCall(fs, cs, c, true) {
					changed = true
				}
			}
		}
	}
	return sums
}

// propagateCall folds callee cs's effects through call edge c into caller
// fs, in the closed (bounded=false) or bounded (bounded=true) variant.
// Returns true if the caller's sets grew.
func propagateCall(fs, cs *funcSummary, c callEdge, bounded bool) bool {
	calleeFieldW := cs.closedFieldW
	calleeParamW := cs.closedParamW
	calleeRecvW := cs.closedRecvW
	if bounded {
		calleeFieldW = cs.boundedFieldW
		calleeParamW = cs.boundedParamW
		calleeRecvW = cs.boundedRecvW
	}
	fieldW := fs.closedFieldW
	paramW := fs.closedParamW
	recvW := &fs.closedRecvW
	if bounded {
		fieldW = fs.boundedFieldW
		paramW = fs.boundedParamW
		recvW = &fs.boundedRecvW
	}

	changed := false
	markRoot := func(r root, fields map[string]fieldOrigin, wholeRecv bool) {
		switch r.kind {
		case rootRecv:
			if wholeRecv || fields == nil {
				// The callee writes through the shared receiver but we cannot
				// name the fields (whole-receiver write, or a non-method
				// callee writing through a parameter bound to the receiver).
				if !*recvW {
					*recvW = true
					changed = true
				}
				return
			}
			for f := range fields {
				if _, ok := fieldW[f]; !ok {
					fieldW[f] = fieldOrigin{pos: c.pos, via: cs.obj.Name()}
					changed = true
				}
			}
		case rootField:
			if _, ok := fieldW[r.field]; !ok {
				fieldW[r.field] = fieldOrigin{pos: c.pos, via: cs.obj.Name()}
				changed = true
			}
		case rootParam:
			if !paramW[r.param] {
				paramW[r.param] = true
				changed = true
			}
		}
	}

	// The callee's receiver effects land on the call's receiver root.
	if calleeRecvW || len(calleeFieldW) > 0 {
		sameType := fs.recvType != "" && fs.recvType == cs.recvType
		if sameType && c.recvRoot.kind == rootRecv {
			// s.helper(): merge the callee's per-field sets name for name.
			markRoot(c.recvRoot, calleeFieldW, calleeRecvW)
		} else {
			markRoot(c.recvRoot, nil, true)
		}
	}
	// The callee's parameter effects land on the matching argument roots.
	for i, r := range c.argRoots {
		if calleeParamW[i] {
			markRoot(r, nil, true)
		}
	}
	return changed
}

// fnCtx is the per-function environment used while collecting writes.
type fnCtx struct {
	info   *types.Info
	recv   types.Object
	params map[types.Object]int
	env    map[types.Object]root // intra-function aliases
}

// collectFunc gathers the direct write/call observations of one function.
func collectFunc(fset *token.FileSet, pkg *Package, fd *ast.FuncDecl, obj *types.Func) *funcSummary {
	fs := &funcSummary{
		obj:        obj,
		decl:       fd,
		eventBound: pkg.eventBoundAt(fset, fd),
		fieldW:     map[string]fieldOrigin{},
		paramW:     map[int]token.Pos{},
	}
	ctx := &fnCtx{info: pkg.Info, params: map[types.Object]int{}, env: map[types.Object]root{}}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		fs.recvType = receiverTypeName(fd.Recv.List[0].Type)
		for _, name := range fd.Recv.List[0].Names {
			if o := pkg.Info.Defs[name]; o != nil {
				ctx.recv = o
			}
		}
	}
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if o := pkg.Info.Defs[name]; o != nil {
					ctx.params[o] = idx
				}
				idx++
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				// New bindings: track aliases of interesting roots.
				if len(st.Lhs) == len(st.Rhs) {
					for i, lhs := range st.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						o := pkg.Info.Defs[id]
						if o == nil {
							continue
						}
						if r := exprRoot(st.Rhs[i], ctx); r.kind == rootRecv || r.kind == rootField || r.kind == rootParam {
							ctx.env[o] = r
						}
					}
				}
				return true
			}
			for i, lhs := range st.Lhs {
				recordWrite(fset, pkg, fs, ctx, lhs)
				// Plain re-binding of a local to a trackable root keeps the
				// alias environment honest (`t = s.trans` after `var t *T`).
				if id, ok := lhs.(*ast.Ident); ok && i < len(st.Rhs) && len(st.Lhs) == len(st.Rhs) {
					if o := pkg.Info.Uses[id]; o != nil {
						if r := exprRoot(st.Rhs[i], ctx); r.kind == rootRecv || r.kind == rootField || r.kind == rootParam {
							ctx.env[o] = r
						}
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range st.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, name := range vs.Names {
					o := pkg.Info.Defs[name]
					if o == nil {
						continue
					}
					if r := exprRoot(vs.Values[i], ctx); r.kind == rootRecv || r.kind == rootField || r.kind == rootParam {
						ctx.env[o] = r
					}
				}
			}
		case *ast.IncDecStmt:
			recordWrite(fset, pkg, fs, ctx, st.X)
		case *ast.RangeStmt:
			if st.Tok == token.ASSIGN {
				if st.Key != nil {
					recordWrite(fset, pkg, fs, ctx, st.Key)
				}
				if st.Value != nil {
					recordWrite(fset, pkg, fs, ctx, st.Value)
				}
			}
		case *ast.CallExpr:
			collectCall(pkg, fs, ctx, st, fset)
		}
		return true
	})
	return fs
}

// collectCall records a call edge (for the fixpoint) and the write effects
// of mutating builtins.
func collectCall(pkg *Package, fs *funcSummary, ctx *fnCtx, call *ast.CallExpr, fset *token.FileSet) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[fun]
		if b, ok := obj.(*types.Builtin); ok {
			switch b.Name() {
			case "delete", "copy":
				if len(call.Args) > 0 {
					recordWrite(fset, pkg, fs, ctx, call.Args[0])
				}
			}
			return
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() != pkg.Types {
			return
		}
		fs.calls = append(fs.calls, callEdge{
			callee:   fn,
			pos:      call.Pos(),
			recvRoot: root{kind: rootNone},
			argRoots: argRoots(call, ctx),
		})
	case *ast.SelectorExpr:
		sel := pkg.Info.Selections[fun]
		if sel == nil || sel.Kind() != types.MethodVal {
			// Package-qualified call (pkg.Fn): same-package is impossible
			// through a selector, so nothing to record.
			return
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok || fn.Pkg() != pkg.Types {
			return
		}
		fs.calls = append(fs.calls, callEdge{
			callee:   fn,
			pos:      call.Pos(),
			recvRoot: exprRoot(fun.X, ctx),
			argRoots: argRoots(call, ctx),
		})
	}
}

func argRoots(call *ast.CallExpr, ctx *fnCtx) []root {
	out := make([]root, len(call.Args))
	for i, a := range call.Args {
		out[i] = exprRoot(a, ctx)
	}
	return out
}

// recordWrite attributes one lvalue write to its root.
func recordWrite(fset *token.FileSet, pkg *Package, fs *funcSummary, ctx *fnCtx, lhs ast.Expr) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	r := exprRoot(lhs, ctx)
	switch r.kind {
	case rootField:
		if _, ok := fs.fieldW[r.field]; !ok {
			fs.fieldW[r.field] = fieldOrigin{pos: lhs.Pos()}
		}
	case rootRecv:
		if !fs.recvW {
			fs.recvW = true
			fs.recvPos = lhs.Pos()
		}
	case rootParam:
		if _, ok := fs.paramW[r.param]; !ok {
			fs.paramW[r.param] = lhs.Pos()
		}
	}
}

// exprRoot resolves an expression to its memory root, keeping the FIRST
// field hop off the receiver and following intra-function aliases.
func exprRoot(e ast.Expr, ctx *fnCtx) root {
	switch x := e.(type) {
	case *ast.Ident:
		obj := ctx.info.Uses[x]
		if obj == nil {
			obj = ctx.info.Defs[x]
		}
		if obj == nil {
			return root{kind: rootNone}
		}
		if obj == ctx.recv {
			return root{kind: rootRecv, obj: obj}
		}
		if i, ok := ctx.params[obj]; ok {
			return root{kind: rootParam, param: i, obj: obj}
		}
		if r, ok := ctx.env[obj]; ok {
			return r
		}
		return root{kind: rootNone}
	case *ast.SelectorExpr:
		r := exprRoot(x.X, ctx)
		if r.kind == rootRecv {
			return root{kind: rootField, field: firstHopField(x, ctx.info)}
		}
		return r
	case *ast.StarExpr:
		return exprRoot(x.X, ctx)
	case *ast.ParenExpr:
		return exprRoot(x.X, ctx)
	case *ast.IndexExpr:
		return exprRoot(x.X, ctx)
	case *ast.SliceExpr:
		return exprRoot(x.X, ctx)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return exprRoot(x.X, ctx)
		}
	}
	return root{kind: rootNone}
}

// firstHopField names the first field stepped off the receiver, normalising
// promoted selectors (s.Promoted resolves to the embedded hop's name, so
// both spellings of the same write agree).
func firstHopField(sel *ast.SelectorExpr, info *types.Info) string {
	s := info.Selections[sel]
	if s == nil || len(s.Index()) == 0 {
		return sel.Sel.Name
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		i := s.Index()[0]
		if i < st.NumFields() {
			return st.Field(i).Name()
		}
	}
	return sel.Sel.Name
}
