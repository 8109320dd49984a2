package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PoolReturn keeps the engine's typed buffer pools balanced. A pooled
// buffer that is acquired but never returned silently degrades the
// pools back to plain allocation — thousands of ALS jobs then rebuild
// their bucket and group storage from scratch and the reuse PR 1 bought
// evaporates without any test failing. The check applies to the
// packages that own pools (mr, and obs's exporter buffers) and is
// path-sensitive: a value bound from a pool acquisition (getSlice,
// getGroupArena, getBuf, or a raw sync.Pool Get) must, on every path
// that reaches the function's exit, be passed to the matching return
// call, be handed to the DFS with AppendBlock, be returned to the
// caller, or escape into another location (whose owner
// then carries the obligation). The analysis runs a forward
// may-analysis over the function's CFG: the fact is the set of
// outstanding acquisitions, releases and escapes discharge them, and
// whatever survives at the exit block leaks. The
// flow-insensitive predecessor accepted a release anywhere in the
// function, so a release guarded by one branch of an if satisfied it
// even though the other branch leaked; here the leaking path keeps the
// obligation alive to the exit and is reported. Paths ending in panic
// or os.Exit have no edge to the exit block and are deliberately not
// charged. The shuffle-v2 codec pools widened the surface: core's
// per-reduce scratch maps come from a raw sync.Pool behind a type
// assertion, and plans borrow engine slabs through the exported
// mr.Acquire/mr.Recycle pair, so both shapes are tracked here too. The
// proc backend joined when its partition windows started being built in
// slabs borrowed the same way: a slab leaked on a socket error path is
// exactly the branch leak described above.
var PoolReturn = &Analyzer{
	Name: "poolreturn",
	Doc:  "every pool acquisition in the pool-owning packages (mr, obs, core, serve, mrproc) has a matching return on every path",
	Flow: true,
	Run:  runPoolReturn,
}

// poolKinds maps acquisition helpers to the call that must give the
// buffer back.
var poolKinds = map[string]string{
	"getSlice":      "putSlice",
	"getMap":        "putMap",
	"getGroupArena": "putGroupArena",
	"getBuf":        "putBuf",
}

// crossPoolKinds maps mr's exported pool API, usable from any package.
var crossPoolKinds = map[string]string{
	"Acquire": "Recycle",
}

// poolPackages are the package names holding (or borrowing) pooled
// buffers: the engine, the trace exporter, core's codec scratch, the
// serving layer's request/score scratch pools, and the proc backend's
// frame slabs.
var poolPackages = map[string]bool{"mr": true, "obs": true, "core": true, "serve": true, "mrproc": true}

func runPoolReturn(p *Pass) {
	if !poolPackages[p.Pkg.Pkg.Name()] {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, fb := range funcBodies(file) {
			checkPoolBalance(p, fb.body)
		}
	}
}

// acquisition is one pool Get bound to a local identifier.
type acquisition struct {
	obj  types.Object
	put  string // required matching call: putSlice, putMap, …, or "Put"
	call *ast.CallExpr
}

// poolFlow is the per-function must-release problem: facts are sets of
// outstanding acquisition indexes (into acqs), gens maps each binding
// statement to the acquisitions it introduces.
type poolFlow struct {
	p    *Pass
	acqs []acquisition
	gens map[ast.Node][]int
}

func checkPoolBalance(p *Pass, body *ast.BlockStmt) {
	pf := &poolFlow{p: p, gens: map[ast.Node][]int{}}
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		rhs := ast.Unparen(as.Rhs[0])
		// A raw sync.Pool acquisition is idiomatically type-asserted in
		// the same expression: p.Get().(T).
		if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
			rhs = ast.Unparen(ta.X)
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return true
		}
		put := acquisitionPut(p, call)
		if put == "" {
			return true
		}
		obj := p.Pkg.Info.Defs[id]
		if obj == nil {
			obj = p.Pkg.Info.Uses[id]
		}
		if obj != nil {
			pf.gens[as] = append(pf.gens[as], len(pf.acqs))
			pf.acqs = append(pf.acqs, acquisition{obj: obj, put: put, call: call})
		}
		return true
	})
	if len(pf.acqs) == 0 {
		return
	}
	cfg := BuildCFG(body)
	sol := (&Flow{
		CFG:      cfg,
		Lat:      SetLattice[int]{},
		Transfer: pf.transfer,
		Boundary: map[int]bool(nil),
	}).Solve()
	// An acquisition still outstanding when the exit block has run all
	// deferred calls leaks on at least one path. Distinguish total leaks
	// (no path discharges — the old syntactic check caught these) from
	// branch leaks (some path releases, another does not — only the
	// path-sensitive analysis sees those).
	leaked := sol.Out[cfg.Exit].(map[int]bool)
	if len(leaked) == 0 {
		return
	}
	discharged := make([]bool, len(pf.acqs))
	for _, blk := range cfg.Reachable() {
		sol.Replay(blk, func(n ast.Node, f Fact) {
			for id := range f.(map[int]bool) {
				if pf.discharges(n, pf.acqs[id]) {
					discharged[id] = true
				}
			}
		})
	}
	ids := make([]int, 0, len(leaked))
	for id := range leaked {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		acq := pf.acqs[id]
		if discharged[id] {
			// A raw sync.Pool Get returns `any` and may be nil; the getter
			// idiom `if v := pool.Get(); v != nil { return v.(T) }` settles
			// the obligation on the non-nil path and owes nothing on the
			// nil one. The CFG carries no branch-condition facts, so a
			// nil-tested raw Get that discharges somewhere is taken to leak
			// only on the nil path and is not reported. An unguarded or
			// never-released Get is still flagged below.
			if acq.put == "Put" && nilTested(p, body, acq.obj) {
				continue
			}
			p.Reportf(acq.call.Pos(),
				"pooled buffer %s is returned with %s on some paths but leaks on others: the pool degrades to plain allocation on the leaking path",
				acq.obj.Name(), acq.put)
		} else {
			p.Reportf(acq.call.Pos(),
				"pooled buffer %s is acquired but never returned with %s (and does not escape this function): the pool degrades to plain allocation",
				acq.obj.Name(), acq.put)
		}
	}
}

// transfer discharges obligations the node settles, then adds the ones
// it opens.
func (pf *poolFlow) transfer(n ast.Node, f Fact) Fact {
	m := f.(map[int]bool)
	for id := range m {
		if pf.discharges(n, pf.acqs[id]) {
			m = setDel(m, id)
		}
	}
	for _, id := range pf.gens[n] {
		m = setAdd(m, id)
	}
	return m
}

// discharges reports whether executing n settles the acquisition's
// obligation: the matching release, a return of the value, an escape
// into another location, or capture by a function literal that
// releases it (the literal then owns the buffer).
func (pf *poolFlow) discharges(n ast.Node, acq acquisition) bool {
	p := pf.p
	switch n := n.(type) {
	case *DeferRun:
		// The registration statement already discharged; running the
		// defer at exit settles nothing new.
		return false
	case *CaseBind, *RangeHead:
		// Headers evaluate expressions only; the release calls are void
		// and cannot appear there.
		return false
	case *ast.ReturnStmt:
		return exprMentions(p, n.Results, acq.obj)
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			// The value escaping into another variable, field, slice
			// element, or struct literal transfers the obligation.
			// Compound assignments (+=, …) are reads, not escapes.
			for i, rhs := range n.Rhs {
				if isAcquisitionExpr(p, rhs) {
					continue // binding a fresh acquisition, not an escape
				}
				if !escapesVia(p, rhs, acq.obj) {
					continue
				}
				lhs := n.Lhs[min(i, len(n.Lhs)-1)]
				if id, ok := lhs.(*ast.Ident); ok {
					if p.Pkg.Info.Uses[id] == acq.obj || p.Pkg.Info.Defs[id] == acq.obj {
						continue // x = append(x, …) is not an escape
					}
				}
				return true
			}
		}
	}
	return releasesIn(p, n, acq.put, acq.obj) || handsOff(p, n, acq.obj)
}

// handsOff reports whether n passes obj itself to a DFS writer's
// AppendBlock. The file system owns a block's payload from then on, and
// dfsborrow forbids returning it to a pool afterwards, so the handoff
// settles the obligation as a release would (the engine's multi-output
// parts end this way).
func handsOff(p *Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && isDFSCall(p, call, "AppendBlock") {
			for _, arg := range call.Args {
				found = found || identObj(p, arg) == obj
			}
		}
		return !found
	})
	return found
}

// nilTested reports whether the body compares obj against nil.
func nilTested(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		sides := [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}}
		for _, pair := range sides {
			id, ok := ast.Unparen(pair[0]).(*ast.Ident)
			if !ok || p.Pkg.Info.Uses[id] != obj {
				continue
			}
			if other, ok := ast.Unparen(pair[1]).(*ast.Ident); ok && other.Name == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}

// releasesIn reports whether n contains a call to the named release
// with the object among its arguments — directly, or inside a nested
// function literal (a deferred or spawned closure returning the buffer,
// or a stored callback that then owns it).
func releasesIn(p *Pass, n ast.Node, put string, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			if isReleaseCall(p, call, put) && exprMentions(p, call.Args, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isAcquisitionExpr reports whether rhs is itself a pool acquisition
// (optionally behind a type assertion), which binds a fresh buffer
// rather than escaping an existing one.
func isAcquisitionExpr(p *Pass, rhs ast.Expr) bool {
	e := ast.Unparen(rhs)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	return ok && acquisitionPut(p, call) != ""
}

// inspectShallow walks root like ast.Inspect but does not descend into
// nested function literals: each literal body is a separate funcBody
// with its own CFG and analysis.
func inspectShallow(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// acquisitionPut classifies a call as a pool acquisition, returning the
// name of the required release call ("" when it is not one).
func acquisitionPut(p *Pass, call *ast.CallExpr) string {
	if fn := p.FuncFor(call); fn != nil {
		if put, ok := poolKinds[fn.Name()]; ok && fn.Pkg() == p.Pkg.Pkg {
			return put
		}
		if put, ok := crossPoolKinds[fn.Name()]; ok && fn.Pkg() != nil && fn.Pkg().Name() == "mr" {
			return put
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Get" {
		if isSyncPool(p.TypeOf(sel.X)) {
			return "Put"
		}
	}
	return ""
}

// escapesVia reports whether assigning rhs can transfer ownership of
// obj's value: the identifier itself, an alias of it (address, slice,
// dereferenced type assertion), a composite literal holding it, or a
// call that receives it. Plain reads (indexing, arithmetic, len/cap) do
// not transfer the release obligation.
func escapesVia(p *Pass, rhs ast.Expr, obj types.Object) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		return p.Pkg.Info.Uses[e] == obj
	case *ast.UnaryExpr:
		return escapesVia(p, e.X, obj)
	case *ast.StarExpr:
		return escapesVia(p, e.X, obj)
	case *ast.TypeAssertExpr:
		return escapesVia(p, e.X, obj)
	case *ast.SliceExpr:
		return escapesVia(p, e.X, obj)
	case *ast.CompositeLit:
		return exprMentions(p, e.Elts, obj)
	case *ast.CallExpr:
		if fn, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && (fn.Name == "len" || fn.Name == "cap") {
			if _, builtin := p.Pkg.Info.Uses[fn].(*types.Builtin); builtin {
				return false
			}
		}
		return exprMentions(p, e.Args, obj)
	}
	return false
}

// isReleaseCall reports whether call is the named release: one of the
// put helpers, or a Put method on a sync.Pool when put is "Put".
func isReleaseCall(p *Pass, call *ast.CallExpr, put string) bool {
	if put == "Put" {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Put" && isSyncPool(p.TypeOf(sel.X))
	}
	fn := p.FuncFor(call)
	if fn == nil || fn.Name() != put {
		return false
	}
	if _, cross := crossPoolKinds["Acquire"]; cross && put == "Recycle" {
		return fn.Pkg() != nil && fn.Pkg().Name() == "mr"
	}
	return fn.Pkg() == p.Pkg.Pkg
}

// exprMentions reports whether any expression references obj.
func exprMentions(p *Pass, exprs []ast.Expr, obj types.Object) bool {
	found := false
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && p.Pkg.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
	}
	return found
}

// isSyncPool matches sync.Pool and *sync.Pool.
func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "sync")
}
