package lint

// Per-function control-flow graphs. The flow-sensitive analyzers
// (poolreturn, dfsborrow) both run on the same representation: a list
// of basic blocks over the function's statements, with edges for
// if/for/range/switch/select/return and the branch statements, and
// defers modeled as exit-edge actions. The
// builder is purely syntactic — it needs no type information — and it
// never descends into a nested function literal: a FuncLit inside a
// statement is a value, and analyzers that care about literal bodies
// build a separate CFG per body (see funcBodies).
//
// Three conventions matter to transfer functions:
//
//   - An expression node (an if/for condition, a switch tag, a case
//     expression) appears in a block on its own, in evaluation order.
//   - A RangeStmt is represented by a RangeHead marker in the loop-head
//     block — the header's X evaluation plus key/value rebinding —
//     so walking the marker never re-visits the loop body.
//   - A DeferStmt appears twice: at its registration site (as the
//     statement itself) and, wrapped in DeferRun, in the exit block in
//     reverse registration order — the CFG's over-approximation of
//     "all registered defers run when the function returns".
//
// Calls to panic and os.Exit terminate their block with no successor:
// facts do not flow from a panicking path to the exit block, so
// poolreturn's must-release does not charge obligations on paths that
// never return normally.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	// Index is the block's position in CFG.Blocks (creation order,
	// deterministic for a given AST).
	Index int
	// Nodes are the block's statements and evaluated expressions, in
	// execution order.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges, in creation order.
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block; Blocks[0] is Entry and Blocks[1] Exit.
	Blocks []*Block
	// Entry is the block control enters first.
	Entry *Block
	// Exit is the single synthetic exit: every return statement and the
	// fall-off-the-end path lead here. Its Nodes are the DeferRun
	// actions, in reverse registration order.
	Exit *Block
	// Defers are the function's defer statements in registration order.
	Defers []*ast.DeferStmt
}

// DeferRun marks the execution — not the registration — of a deferred
// call. DeferRun nodes live only in the exit block.
type DeferRun struct {
	Defer *ast.DeferStmt
}

func (d *DeferRun) Pos() token.Pos { return d.Defer.Pos() }
func (d *DeferRun) End() token.Pos { return d.Defer.End() }

// CaseBind marks the per-clause binding of a type switch: in
// `switch x := e.(type)`, each case clause introduces its own implicit
// object for x (types.Info.Implicits keyed by the clause), bound from
// the subject e. It heads the clause's block so flow-sensitive
// analyses can transfer facts from the subject to the binding.
type CaseBind struct {
	Switch *ast.TypeSwitchStmt
	Clause *ast.CaseClause
}

func (c *CaseBind) Pos() token.Pos { return c.Clause.Pos() }
func (c *CaseBind) End() token.Pos { return c.Clause.Colon }

// RangeHead marks a range loop's header: one evaluation of X plus the
// rebinding of the key/value variables. It carries the RangeStmt but
// stands only for the header — transfer functions must not walk the
// statement's Body through it.
type RangeHead struct {
	Range *ast.RangeStmt
}

func (r *RangeHead) Pos() token.Pos { return r.Range.Pos() }
func (r *RangeHead) End() token.Pos { return r.Range.X.End() }

// BuildCFG builds the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	cfg := &CFG{}
	b := &cfgBuilder{cfg: cfg, labels: map[string]*Block{}}
	cfg.Entry = b.newBlock()
	cfg.Exit = b.newBlock()
	b.cur = cfg.Entry
	b.stmtList(body.List)
	b.edge(b.cur, cfg.Exit) // falling off the end returns
	for _, g := range b.gotos {
		if target, ok := b.labels[g.name]; ok {
			b.edge(g.from, target)
		}
	}
	for i := len(cfg.Defers) - 1; i >= 0; i-- {
		cfg.Exit.Nodes = append(cfg.Exit.Nodes, &DeferRun{Defer: cfg.Defers[i]})
	}
	return cfg
}

// Reachable returns the blocks reachable from Entry, in index order.
// Unreachable blocks (code after return/panic, loop exits of for{})
// stay in Blocks but carry no facts worth reporting on.
func (c *CFG) Reachable() []*Block {
	seen := make([]bool, len(c.Blocks))
	stack := []*Block{c.Entry}
	seen[c.Entry.Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	var out []*Block
	for _, blk := range c.Blocks {
		if seen[blk.Index] {
			out = append(out, blk)
		}
	}
	return out
}

// ctrlCtx is one enclosing breakable construct: a loop (continueTo
// non-nil) or a switch/select (continueTo nil).
type ctrlCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block
}

type pendingGoto struct {
	from *Block
	name string
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	ctxs   []ctrlCtx
	labels map[string]*Block
	gotos  []pendingGoto
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *cfgBuilder) append(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) push(c ctrlCtx) { b.ctxs = append(b.ctxs, c) }
func (b *cfgBuilder) pop()           { b.ctxs = b.ctxs[:len(b.ctxs)-1] }

// breakTarget resolves a break (label "" = innermost breakable).
func (b *cfgBuilder) breakTarget(label string) *Block {
	for i := len(b.ctxs) - 1; i >= 0; i-- {
		if label == "" || b.ctxs[i].label == label {
			return b.ctxs[i].breakTo
		}
	}
	return nil
}

// continueTarget resolves a continue (label "" = innermost loop).
func (b *cfgBuilder) continueTarget(label string) *Block {
	for i := len(b.ctxs) - 1; i >= 0; i-- {
		if b.ctxs[i].continueTo == nil {
			continue // switch/select: continue passes through
		}
		if label == "" || b.ctxs[i].label == label {
			return b.ctxs[i].continueTo
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ReturnStmt:
		b.append(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock() // anything after is unreachable
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		b.append(s)
		b.cfg.Defers = append(b.cfg.Defers, s)
	case *ast.ExprStmt:
		b.append(s)
		if isTerminalCall(s.X) {
			// panic/os.Exit: the path ends here, with no normal-exit
			// edge, so exit-time must-facts ignore it.
			b.cur = b.newBlock()
		}
	case nil:
		// nothing (absent else, empty comm clause)
	default:
		// Assign, Decl, IncDec, Send, Go, Empty: straight-line.
		b.append(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.append(s.Cond)
	cond := b.cur
	after := b.newBlock()
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	b.edge(b.cur, after)
	if s.Else != nil {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, after)
	} else {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.append(s.Cond)
	}
	after := b.newBlock()
	body := b.newBlock()
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}
	post := head
	if s.Post != nil {
		post = b.newBlock()
	}
	b.push(ctrlCtx{label: label, breakTo: after, continueTo: post})
	b.cur = body
	b.stmt(s.Body)
	b.pop()
	if s.Post != nil {
		b.edge(b.cur, post)
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head)
	} else {
		b.edge(b.cur, head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.edge(b.cur, head)
	head.Nodes = append(head.Nodes, &RangeHead{Range: s})
	after := b.newBlock()
	body := b.newBlock()
	b.edge(head, body)
	b.edge(head, after)
	b.push(ctrlCtx{label: label, breakTo: after, continueTo: head})
	b.cur = body
	b.stmt(s.Body)
	b.pop()
	b.edge(b.cur, head)
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.append(s.Tag)
	}
	cond := b.cur
	after := b.newBlock()
	clauses := s.Body.List
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		b.edge(cond, blocks[i])
	}
	b.push(ctrlCtx{label: label, breakTo: after})
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.append(e)
		}
		b.stmtList(cc.Body)
		if endsWithFallthrough(cc.Body) && i+1 < len(clauses) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	b.pop()
	if !hasDefault {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.append(s.Assign) // one evaluation of the subject
	cond := b.cur
	after := b.newBlock()
	b.push(ctrlCtx{label: label, breakTo: after})
	hasDefault := false
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(cond, blk)
		b.cur = blk
		blk.Nodes = append(blk.Nodes, &CaseBind{Switch: s, Clause: cc})
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.pop()
	if !hasDefault {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	sel := b.cur
	after := b.newBlock()
	b.push(ctrlCtx{label: label, breakTo: after})
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CommClause)
		blk := b.newBlock()
		b.edge(sel, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.pop()
	// select{} with no clauses blocks forever: after stays unreachable.
	b.cur = after
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	target := b.newBlock()
	b.edge(b.cur, target)
	b.cur = target
	b.labels[s.Label.Name] = target
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if target := b.breakTarget(label); target != nil {
			b.edge(b.cur, target)
		}
		b.cur = b.newBlock()
	case token.CONTINUE:
		if target := b.continueTarget(label); target != nil {
			b.edge(b.cur, target)
		}
		b.cur = b.newBlock()
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, name: label})
		b.cur = b.newBlock()
	case token.FALLTHROUGH:
		// The enclosing switch builder wires the edge to the next clause.
	}
}

// endsWithFallthrough reports whether a case body's last statement is
// fallthrough (possibly labeled, which gofmt forbids but Go allows).
func endsWithFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	last := body[len(body)-1]
	for {
		ls, ok := last.(*ast.LabeledStmt)
		if !ok {
			break
		}
		last = ls.Stmt
	}
	br, ok := last.(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isTerminalCall matches the calls after which control cannot continue
// on the normal path: the panic built-in and os.Exit. Matching is
// syntactic (the CFG has no type information); shadowing panic or os is
// not an idiom this repository needs the graph to survive.
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			return id.Name == "os" && fn.Sel.Name == "Exit"
		}
	}
	return false
}

// funcBody is one function-shaped body to analyze: a declaration or a
// function literal. The flow-sensitive analyzers build one CFG per
// body; a literal nested in a declaration is analyzed separately, not
// inlined.
type funcBody struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
}

// funcBodies collects every function body of a file: declarations
// first (in source order), then literals in source order of their
// position, each exactly once.
func funcBodies(file *ast.File) []funcBody {
	var out []funcBody
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if ok && fd.Body != nil {
			out = append(out, funcBody{decl: fd, body: fd.Body})
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
			out = append(out, funcBody{lit: lit, body: lit.Body})
		}
		return true
	})
	return out
}
