package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// stateSet is the abstract state of the thread's current short
// transaction at one program point — a set because different paths may
// disagree. The flow analysis is deliberately single-stream: a function
// drives one Thr's short transaction at a time, which is how every
// spectm client is written (the engine itself enforces one live short
// txn per thread).
type stateSet uint8

const (
	stNone stateSet = 1 << iota // no short txn open
	stRO                        // read-only txn open (holds no locks)
	stLock                      // lock-holding txn open (RW or combined)
)

// condKind tags boolean variables whose truth refines the txn state:
// d.Valid() results (false ⇒ the engine already released everything)
// and upgrade results (true ⇒ locks held, false ⇒ released).
type condKind int

const (
	condValid condKind = iota + 1
	condUpgrade
)

// loopCtx collects the abstract states flowing out of a loop or switch
// via break/continue.
type loopCtx struct {
	brk  stateSet
	cont []contEdge
}

type contEdge struct {
	pos token.Pos
	s   stateSet
}

// txnFlow walks one function body tracking the short-transaction state.
// The hooks make it reusable: txnpath wires the leak reports, walorder
// wires the per-call-site hook.
type txnFlow struct {
	info *types.Info

	// onLeak fires where a lock-holding short transaction may escape
	// its owner: early return, panic, loop back-edge, function end.
	onLeak func(pos token.Pos, what string)
	// onOpenWhileLock fires when a new short txn opens while a
	// lock-holding one is still undecided.
	onOpenWhileLock func(pos token.Pos)
	// onCall fires at every call site with the state before the call's
	// own event applies.
	onCall func(call *ast.CallExpr, s stateSet)

	deferClose bool // a defer closes the txn: return-site leaks are fine
	bailed     bool // goto/labeled control flow: analysis declined
	condVars   map[types.Object]condKind
}

func newTxnFlow(info *types.Info) *txnFlow {
	return &txnFlow{info: info, condVars: map[types.Object]condKind{}}
}

// analyze runs the flow over one function body.
func (t *txnFlow) analyze(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own function
		case *ast.BranchStmt:
			if n.Label != nil || n.Tok == token.GOTO {
				t.bailed = true
			}
		case *ast.DeferStmt:
			if deferCloses(t.info, n) {
				t.deferClose = true
			}
		}
		return true
	})
	if t.bailed {
		return
	}
	out, falls := t.stmts(body.List, stNone, nil, nil)
	if falls && out&stLock != 0 && !t.deferClose {
		t.leak(body.Rbrace, "function end")
	}
}

func (t *txnFlow) leak(pos token.Pos, what string) {
	if t.onLeak != nil {
		t.onLeak(pos, what)
	}
}

// deferCloses reports whether the deferred call (directly or inside a
// deferred closure) closes the short transaction.
func deferCloses(info *types.Info, d *ast.DeferStmt) bool {
	closes := false
	ast.Inspect(d, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch classifyTxnCall(info, call) {
			case evTerminal:
				closes = true
			}
		}
		return true
	})
	return closes
}

// ---- statements ----

func (t *txnFlow) stmts(list []ast.Stmt, s stateSet, loop, sw *loopCtx) (stateSet, bool) {
	for _, st := range list {
		out, falls := t.stmt(st, s, loop, sw)
		if !falls {
			return out, false
		}
		s = out
	}
	return s, true
}

func (t *txnFlow) stmt(st ast.Stmt, s stateSet, loop, sw *loopCtx) (stateSet, bool) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && isBuiltinIdent(t.info, id) {
				s = t.exprs(call.Args, s)
				if s&stLock != 0 && !t.deferClose {
					t.leak(st.Pos(), "panic")
				}
				return s, false
			}
			if isNoReturnCall(t.info, call) {
				return t.expr(st.X, s), false
			}
		}
		return t.expr(st.X, s), true

	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			s = t.expr(l, s)
		}
		for _, r := range st.Rhs {
			s = t.expr(r, s)
		}
		t.bindCondVars(st)
		return s, true

	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					s = t.exprs(vs.Values, s)
				}
			}
		}
		return s, true

	case *ast.ReturnStmt:
		s = t.exprs(st.Results, s)
		if s&stLock != 0 && !t.deferClose {
			t.leak(st.Pos(), "return")
		}
		return s, false

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if sw != nil {
				sw.brk |= s
			} else if loop != nil {
				loop.brk |= s
			}
			return s, false
		case token.CONTINUE:
			if loop != nil {
				loop.cont = append(loop.cont, contEdge{st.Pos(), s})
			}
			return s, false
		case token.FALLTHROUGH:
			return s, true // switch logic unions this into the next case
		}
		return s, false // goto: bailed earlier

	case *ast.BlockStmt:
		return t.stmts(st.List, s, loop, sw)

	case *ast.IfStmt:
		if st.Init != nil {
			s, _ = t.stmt(st.Init, s, loop, sw)
		}
		tt, ff := t.refineCond(st.Cond, s)
		thenOut, thenFalls := t.stmts(st.Body.List, tt, loop, sw)
		elseOut, elseFalls := ff, true
		if st.Else != nil {
			elseOut, elseFalls = t.stmt(st.Else, ff, loop, sw)
		}
		var out stateSet
		if thenFalls {
			out |= thenOut
		}
		if elseFalls {
			out |= elseOut
		}
		return out, thenFalls || elseFalls

	case *ast.ForStmt:
		if st.Init != nil {
			s, _ = t.stmt(st.Init, s, loop, sw)
		}
		if st.Cond != nil {
			s = t.expr(st.Cond, s)
		}
		lp := &loopCtx{}
		bodyOut, bodyFalls := t.stmts(st.Body.List, s, lp, nil)
		if st.Post != nil && bodyFalls {
			bodyOut, _ = t.stmt(st.Post, bodyOut, lp, nil)
		}
		t.checkBackEdges(s, st.Body.Rbrace, bodyOut, bodyFalls, lp)
		if st.Cond == nil {
			return lp.brk, lp.brk != 0
		}
		return s | lp.brk, true

	case *ast.RangeStmt:
		s = t.expr(st.X, s)
		lp := &loopCtx{}
		bodyOut, bodyFalls := t.stmts(st.Body.List, s, lp, nil)
		t.checkBackEdges(s, st.Body.Rbrace, bodyOut, bodyFalls, lp)
		return s | lp.brk, true

	case *ast.SwitchStmt:
		if st.Init != nil {
			s, _ = t.stmt(st.Init, s, loop, sw)
		}
		if st.Tag != nil {
			s = t.expr(st.Tag, s)
		}
		return t.caseBodies(st.Body, s, loop)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s, _ = t.stmt(st.Init, s, loop, sw)
		}
		s, _ = t.stmt(st.Assign, s, loop, sw)
		return t.caseBodies(st.Body, s, loop)

	case *ast.SelectStmt:
		swc := &loopCtx{}
		var out stateSet
		falls := false
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			cs := s
			if cc.Comm != nil {
				cs, _ = t.stmt(cc.Comm, cs, loop, swc)
			}
			co, cf := t.stmts(cc.Body, cs, loop, swc)
			if cf {
				out |= co
				falls = true
			}
		}
		out |= swc.brk
		return out, falls || swc.brk != 0

	case *ast.DeferStmt:
		// The deferred call runs at return, not here; deferCloses was
		// recorded in the pre-scan. Argument expressions do evaluate
		// now.
		return t.exprs(st.Call.Args, s), true

	case *ast.GoStmt:
		return t.exprs(st.Call.Args, s), true

	case *ast.SendStmt:
		s = t.expr(st.Chan, s)
		return t.expr(st.Value, s), true

	case *ast.IncDecStmt:
		return t.expr(st.X, s), true

	case *ast.LabeledStmt:
		return s, true // bailed earlier

	default:
		return s, true
	}
}

// caseBodies evaluates switch/type-switch cases, handling fallthrough
// by unioning a falling case's exit into the next case's entry.
func (t *txnFlow) caseBodies(body *ast.BlockStmt, s stateSet, loop *loopCtx) (stateSet, bool) {
	swc := &loopCtx{}
	var out stateSet
	falls := false
	hasDefault := false
	var fallIn stateSet
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cs := s | fallIn
		fallIn = 0
		cs = t.exprs(cc.List, cs)
		co, cf := t.stmts(cc.Body, cs, loop, swc)
		if cf {
			if endsInFallthrough(cc.Body) {
				fallIn = co
			} else {
				out |= co
				falls = true
			}
		}
	}
	out |= swc.brk
	if !hasDefault {
		out |= s
		falls = true
	}
	return out, falls || swc.brk != 0
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	b, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && b.Tok == token.FALLTHROUGH
}

// checkBackEdges reports lock-holding states flowing around a loop —
// but only when the lock was acquired inside the iteration. A loop that
// runs entirely under a lock opened upstream (entry state already
// lock-holding, e.g. scanning slots of a locked leaf) is legal: the
// decision comes after the loop.
func (t *txnFlow) checkBackEdges(entry stateSet, end token.Pos, bodyOut stateSet, bodyFalls bool, lp *loopCtx) {
	if t.deferClose || entry&stLock != 0 {
		return
	}
	if bodyFalls && bodyOut&stLock != 0 {
		t.leak(end, "next loop iteration")
	}
	for _, c := range lp.cont {
		if c.s&stLock != 0 {
			t.leak(c.pos, "continue")
		}
	}
}

// isNoReturnCall recognizes calls that never return (process or
// goroutine exit): os.Exit, runtime.Goexit, log.Fatal*.
func isNoReturnCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "os":
		return sel.Sel.Name == "Exit"
	case "runtime":
		return sel.Sel.Name == "Goexit"
	case "log":
		return sel.Sel.Name == "Fatal" || sel.Sel.Name == "Fatalf" || sel.Sel.Name == "Fatalln"
	}
	return false
}

// bindCondVars records boolean bindings whose truth refines the state:
// `ok := d.Valid()` and `c, ok := d.Upgrade2()`.
func (t *txnFlow) bindCondVars(st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	bind := func(e ast.Expr, k condKind) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := t.info.Defs[id]; obj != nil {
				t.condVars[obj] = k
			} else if obj := t.info.Uses[id]; obj != nil {
				t.condVars[obj] = k
			}
		}
	}
	switch classifyTxnCall(t.info, call) {
	case evValid:
		if len(st.Lhs) == 1 {
			bind(st.Lhs[0], condValid)
		}
	case evUpgrade:
		if len(st.Lhs) == 2 { // (desc, bool)
			bind(st.Lhs[1], condUpgrade)
		}
	}
}

// ---- expressions ----

func (t *txnFlow) exprs(list []ast.Expr, s stateSet) stateSet {
	for _, e := range list {
		s = t.expr(e, s)
	}
	return s
}

// expr applies the transaction events of every call inside e, in
// evaluation order (arguments before the call itself).
func (t *txnFlow) expr(e ast.Expr, s stateSet) stateSet {
	switch e := e.(type) {
	case nil:
		return s
	case *ast.FuncLit:
		return s // analyzed separately
	case *ast.CallExpr:
		s = t.expr(e.Fun, s)
		s = t.exprs(e.Args, s)
		return t.applyCall(e, s)
	case *ast.ParenExpr:
		return t.expr(e.X, s)
	case *ast.UnaryExpr:
		return t.expr(e.X, s)
	case *ast.BinaryExpr:
		s = t.expr(e.X, s)
		return t.expr(e.Y, s)
	case *ast.SelectorExpr:
		return t.expr(e.X, s)
	case *ast.IndexExpr:
		s = t.expr(e.X, s)
		return t.expr(e.Index, s)
	case *ast.SliceExpr:
		s = t.expr(e.X, s)
		s = t.expr(e.Low, s)
		s = t.expr(e.High, s)
		return t.expr(e.Max, s)
	case *ast.StarExpr:
		return t.expr(e.X, s)
	case *ast.TypeAssertExpr:
		return t.expr(e.X, s)
	case *ast.CompositeLit:
		return t.exprs(e.Elts, s)
	case *ast.KeyValueExpr:
		s = t.expr(e.Key, s)
		return t.expr(e.Value, s)
	default:
		return s
	}
}

// applyCall applies one call's event to the state.
func (t *txnFlow) applyCall(call *ast.CallExpr, s stateSet) stateSet {
	if t.onCall != nil {
		t.onCall(call, s)
	}
	switch classifyTxnCall(t.info, call) {
	case evOpenLock:
		if s&stLock != 0 && t.onOpenWhileLock != nil {
			t.onOpenWhileLock(call.Pos())
		}
		return stLock
	case evOpenRO:
		if s&stLock != 0 && t.onOpenWhileLock != nil {
			t.onOpenWhileLock(call.Pos())
		}
		return stRO
	case evExtend:
		return s
	case evLockRead:
		return stLock
	case evUpgrade:
		return stLock | stNone
	case evValid:
		return s | stNone
	case evTerminal:
		return stNone
	}
	return s
}

// refineCond evaluates a branch condition and returns the state sets
// for the true and false branches.
func (t *txnFlow) refineCond(e ast.Expr, s stateSet) (tt, ff stateSet) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return t.refineCond(e.X, s)

	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			a, b := t.refineCond(e.X, s)
			return b, a
		}

	case *ast.Ident:
		var obj types.Object = t.info.Uses[e]
		if obj == nil {
			obj = t.info.Defs[e]
		}
		if obj != nil {
			switch t.condVars[obj] {
			case condValid:
				return s &^ stNone, stNone
			case condUpgrade:
				return stLock, stNone
			}
		}

	case *ast.CallExpr:
		ev := classifyTxnCall(t.info, e)
		ps := t.expr(e, s)
		switch ev {
		case evValid:
			return s &^ stNone, stNone
		case evUpgrade:
			return stLock, stNone
		}
		return ps, ps

	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			lt, lf := t.refineCond(e.X, s)
			rt, rf := t.refineCond(e.Y, lt)
			return rt, lf | rf
		case token.LOR:
			lt, lf := t.refineCond(e.X, s)
			rt, rf := t.refineCond(e.Y, lf)
			return lt | rt, rf
		}
	}
	ps := t.expr(e, s)
	return ps, ps
}
