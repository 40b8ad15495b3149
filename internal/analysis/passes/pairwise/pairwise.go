// Package pairwise generalizes go vet's lostcancel to the repo's
// acquire/release pairs: resources that must be handed back exactly
// once or a pool/queue/trace silently degrades. The pair table says
// which call acquires what and how it is released:
//
//   - an obs span (obs.Start/StartDet, (*Tracer).Root, (*Span).Child)
//     must reach End or EndErr — a leaked span never records, skewing
//     every trace assembled from the ring buffer;
//   - a serving queue slot ((*Queue).Acquire's release func) must be
//     called — a leaked slot is permanently lost admission capacity;
//   - a results breaker probe ((*Health).Allow) must reach Done — an
//     unreported probe starves the rolling error window, and in the
//     half-open state it wedges the breaker: the lone trial slot never
//     reports, so the breaker can never close again;
//   - a bcc pool acquisition (acquireVector/acquirePlane for the round
//     loop's two media, takeInts) must flow back through its
//     release/recycle or escape into an owner that releases later — a
//     leaked medium is a pool that never warms, and the round loop
//     allocates per run again.
//
// The check is a structured walk of the acquiring function: on every
// path from the acquisition to a return (or the function's end) the
// resource must be released, deferred for release, or escape to a new
// owner (returned, stored, or passed to another function). Diagnostics
// land on the acquisition site.
package pairwise

import (
	"go/ast"
	"go/types"
	"strings"

	"bcclique/internal/analysis"
)

// Analyzer is the bccvet entry point.
var Analyzer = &analysis.Analyzer{
	Name: "pairwise",
	Doc:  "paired resources (obs spans, queue slots, bcc pooled scratch) must be released on every path",
	Run:  run,
}

// pairSpec describes one acquire/release pair.
type pairSpec struct {
	pkg      string // import-path tail of the defining package
	recv     string // receiver type name; "" for package-level functions
	fn       string // acquiring function or method
	result   int    // index of the resource in the result tuple
	resource string // noun for diagnostics
	// release is satisfied by a method call on the resource (methods),
	// by passing the resource to a function (funcs), or by calling the
	// resource itself (selfCall).
	methods  []string
	funcs    []string
	selfCall bool
}

func (s pairSpec) want() string {
	switch {
	case s.selfCall:
		return "a call of the returned func"
	case len(s.methods) > 0:
		return strings.Join(s.methods, "/")
	default:
		return strings.Join(s.funcs, "/")
	}
}

var pairs = []pairSpec{
	{pkg: "obs", fn: "Start", result: 1, resource: "span", methods: []string{"End", "EndErr"}},
	{pkg: "obs", fn: "StartDet", result: 1, resource: "span", methods: []string{"End", "EndErr"}},
	{pkg: "obs", recv: "Tracer", fn: "Root", result: 1, resource: "root span", methods: []string{"End", "EndErr"}},
	{pkg: "obs", recv: "Span", fn: "Child", result: 0, resource: "child span", methods: []string{"End", "EndErr"}},
	{pkg: "serving", recv: "Queue", fn: "Acquire", result: 0, resource: "queue slot", selfCall: true},
	{pkg: "results", recv: "Health", fn: "Allow", result: 0, resource: "breaker probe", methods: []string{"Done"}},
	{pkg: "bcc", fn: "acquireVector", result: 0, resource: "pooled Message vector", methods: []string{"release"}},
	{pkg: "bcc", fn: "acquirePlane", result: 0, resource: "pooled bit plane", methods: []string{"release"}},
	{pkg: "bcc", fn: "takeInts", result: 0, resource: "pooled []int", funcs: []string{"recycleInts"}},
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// matchAcquire reports which pair (if any) the call acquires.
func matchAcquire(pass *analysis.Pass, call *ast.CallExpr) (pairSpec, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return pairSpec{}, false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return pairSpec{}, false
	}
	path := fn.Pkg().Path()
	for _, spec := range pairs {
		if fn.Name() != spec.fn {
			continue
		}
		if path != spec.pkg && !strings.HasSuffix(path, "/"+spec.pkg) {
			continue
		}
		recv := ""
		if r := fn.Type().(*types.Signature).Recv(); r != nil {
			t := r.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				recv = named.Obj().Name()
			}
		}
		if recv != spec.recv {
			continue
		}
		return spec, true
	}
	return pairSpec{}, false
}

// checkFunc scans one function body for acquisitions and verifies each
// reaches its release.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var walkList func(stmts []ast.Stmt)
	walkList = func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			switch s := stmt.(type) {
			case *ast.AssignStmt:
				for ri, rhs := range s.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					spec, ok := matchAcquire(pass, call)
					if !ok {
						continue
					}
					// a, b := f() has one RHS covering both results;
					// a := f() with one result maps index 0.
					idx := spec.result
					if len(s.Rhs) != 1 {
						idx = ri
					}
					if idx >= len(s.Lhs) {
						continue
					}
					id, ok := s.Lhs[idx].(*ast.Ident)
					if !ok || id.Name == "_" {
						pass.Reportf(call.Pos(),
							"%s from %s is discarded; it must reach %s", spec.resource, spec.fn, spec.want())
						continue
					}
					obj := objOf(pass, id)
					if obj == nil {
						continue
					}
					t := &tracker{pass: pass, spec: spec, obj: obj}
					released := t.walk(stmts[i+1:], false)
					if !released && !t.deferred && !t.escaped {
						pass.Reportf(call.Pos(),
							"%s from %s does not reach %s on every path", spec.resource, spec.fn, spec.want())
					}
				}
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if spec, ok := matchAcquire(pass, call); ok {
						pass.Reportf(call.Pos(),
							"%s from %s is discarded; it must reach %s", spec.resource, spec.fn, spec.want())
					}
				}
			}
			// Recurse into nested blocks so acquisitions inside them
			// are checked against their own tails.
			switch s := stmt.(type) {
			case *ast.BlockStmt:
				walkList(s.List)
			case *ast.IfStmt:
				walkList(s.Body.List)
				switch alt := s.Else.(type) {
				case *ast.BlockStmt:
					walkList(alt.List)
				case *ast.IfStmt:
					walkList([]ast.Stmt{alt})
				}
			case *ast.ForStmt:
				walkList(s.Body.List)
			case *ast.RangeStmt:
				walkList(s.Body.List)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkList(cc.Body)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkList(cc.Body)
					}
				}
			case *ast.SelectStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						walkList(cc.Body)
					}
				}
			case *ast.LabeledStmt:
				walkList([]ast.Stmt{s.Stmt})
			}
		}
	}
	walkList(body.List)
}

// objOf resolves an identifier to its object.
func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// tracker follows one acquired resource through the statements after
// its acquisition.
type tracker struct {
	pass     *analysis.Pass
	spec     pairSpec
	obj      types.Object
	deferred bool // a defer guarantees release at every exit
	escaped  bool // ownership moved: returned, stored, passed on
}

// walk processes a statement list with the given entry state and
// returns whether the resource is released when control falls off the
// end of the list.
func (t *tracker) walk(stmts []ast.Stmt, released bool) bool {
	for _, stmt := range stmts {
		if t.deferred || t.escaped {
			return true
		}
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			if t.usesRelease(s.Call) || t.mentions(s.Call) {
				// A defer that releases (or hands the resource to a
				// closure that does) covers every exit.
				if t.usesRelease(s.Call) || containsRelease(t, s.Call) {
					t.deferred = true
				} else {
					t.escaped = true
				}
			}
		case *ast.GoStmt:
			if t.mentions(s.Call) {
				t.escaped = true
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if t.mentionsExpr(r) {
					t.escaped = true
				}
			}
			return released || t.deferred || t.escaped
		case *ast.BranchStmt:
			// break/continue/goto: give up on this path rather than
			// claim a leak we cannot prove.
			return true
		case *ast.ExprStmt:
			released = released || t.scanStmt(stmt)
			if call, ok := s.X.(*ast.CallExpr); ok && isPanic(t.pass, call) {
				return true
			}
		case *ast.IfStmt:
			thenR := t.walk(s.Body.List, released)
			elseR := released
			switch alt := s.Else.(type) {
			case *ast.BlockStmt:
				elseR = t.walk(alt.List, released)
			case *ast.IfStmt:
				elseR = t.walk([]ast.Stmt{alt}, released)
			}
			if s.Else != nil {
				released = thenR && elseR
			}
			// No else: the branch may be skipped, state unchanged
			// unless it was already released.
		case *ast.BlockStmt:
			released = t.walk(s.List, released)
		case *ast.ForStmt:
			t.walk(s.Body.List, released)
		case *ast.RangeStmt:
			t.walk(s.Body.List, released)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var clauses []*ast.BlockStmt
			hasDefault := false
			collect := func(list []ast.Stmt) {
				for _, c := range list {
					switch cc := c.(type) {
					case *ast.CaseClause:
						if cc.List == nil {
							hasDefault = true
						}
						clauses = append(clauses, &ast.BlockStmt{List: cc.Body})
					case *ast.CommClause:
						if cc.Comm == nil {
							hasDefault = true
						}
						clauses = append(clauses, &ast.BlockStmt{List: cc.Body})
					}
				}
			}
			switch sw := s.(type) {
			case *ast.SwitchStmt:
				collect(sw.Body.List)
			case *ast.TypeSwitchStmt:
				collect(sw.Body.List)
			case *ast.SelectStmt:
				collect(sw.Body.List)
				hasDefault = true // select blocks until a case runs
			}
			all := len(clauses) > 0
			for _, c := range clauses {
				if !t.walk(c.List, released) {
					all = false
				}
			}
			if all && hasDefault {
				released = true
			}
		default:
			released = released || t.scanStmt(stmt)
		}
	}
	return released || t.deferred || t.escaped
}

// scanStmt classifies every use of the tracked object in one statement
// (ignoring nested statement lists, which walk handles): returns true
// if a releasing use occurs; flags escapes as a side effect.
func (t *tracker) scanStmt(stmt ast.Stmt) bool {
	released := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The resource captured by a closure has an unknowable
			// lifetime; treat as ownership transfer.
			if t.mentions(n) {
				t.escaped = true
			}
			return false
		case *ast.CallExpr:
			if t.usesRelease(n) {
				released = true
				return false
			}
			// Non-release method calls on the resource (span.SetStr)
			// are neutral; the resource as an *argument* to another
			// call transfers ownership, unless the argument only copies
			// a basic-typed field out of it.
			for _, arg := range n.Args {
				if t.mentionsExpr(arg) && !t.readsField(arg) {
					t.escaped = true
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && !t.isObj(sel.X) && t.mentionsExpr(sel.X) {
				t.escaped = true
			}
			return true
		case *ast.AssignStmt:
			allBlank := true
			for _, lhs := range n.Lhs {
				if t.isObj(lhs) {
					// Rebound: stop tracking the old value.
					t.escaped = true
				}
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
			if allBlank {
				// `_ = x` appeases the compiler; it neither releases
				// nor transfers ownership.
				break
			}
			for _, rhs := range n.Rhs {
				if _, isCall := rhs.(*ast.CallExpr); !isCall && t.mentionsExpr(rhs) {
					// Stored somewhere (field, map, variable): a new
					// owner is now responsible.
					t.escaped = true
				}
			}
		case *ast.SendStmt:
			if t.mentionsExpr(n.Value) {
				t.escaped = true
			}
		}
		return true
	})
	return released
}

// usesRelease reports whether the call releases the tracked resource.
func (t *tracker) usesRelease(call *ast.CallExpr) bool {
	if t.spec.selfCall {
		return t.isObj(call.Fun)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && t.isObj(sel.X) {
		for _, m := range t.spec.methods {
			if sel.Sel.Name == m {
				return true
			}
		}
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	for _, f := range t.spec.funcs {
		if name == f {
			for _, arg := range call.Args {
				if t.isObj(arg) {
					return true
				}
			}
		}
	}
	return false
}

// readsField reports whether e is a basic-typed field of the tracked
// resource (mv.b): a copied value, not the resource itself.
func (t *tracker) readsField(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !t.isObj(sel.X) {
		return false
	}
	tv, ok := t.pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	_, basic := tv.Type.Underlying().(*types.Basic)
	return basic
}

// isObj reports whether e is exactly the tracked identifier.
func (t *tracker) isObj(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && objOf(t.pass, id) == t.obj
}

// mentions reports whether the node references the tracked object
// anywhere.
func (t *tracker) mentions(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && objOf(t.pass, id) == t.obj {
			found = true
		}
		return !found
	})
	return found
}

// mentionsExpr is mentions for expressions.
func (t *tracker) mentionsExpr(e ast.Expr) bool { return e != nil && t.mentions(e) }

// containsRelease reports whether a call expression (typically a
// deferred closure invocation) contains a releasing use somewhere
// inside.
func containsRelease(t *tracker, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && t.usesRelease(c) {
			found = true
		}
		return !found
	})
	return found
}

// isPanic reports whether the call is the predeclared panic.
func isPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
