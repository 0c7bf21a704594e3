// Package analyzers holds the spectm-specific static checks: the
// short-transaction usage contract (txnescape, txnpath), the 0-alloc
// hot-path gate (noalloc), the atomic access discipline of the lock
// layers (atomicdiscipline), and the durability ordering of the WAL
// post-commit hooks (walorder). See DESIGN.md "Static invariants".
package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"

	"spectm/internal/analysis"
)

// corePkgPath is the package that defines the short-transaction
// descriptors and the Thr openers.
const corePkgPath = "spectm/internal/core"

// descRe matches the typed descriptor names: ShortRW1..4, ShortRO1..4
// and the combined ShortROxRWy forms.
var descRe = regexp.MustCompile(`^Short(RO[1-4])?(RW[1-4])?$`)

// descTypeName reports whether t (possibly behind a pointer or alias)
// is a short-transaction descriptor type, and returns its name.
func descTypeName(t types.Type) (string, bool) {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != corePkgPath {
		return "", false
	}
	name := obj.Name()
	if name == "Short" || !descRe.MatchString(name) {
		return "", false
	}
	return name, true
}

// isThr reports whether t is core.Thr or *core.Thr.
func isThr(t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Thr" && obj.Pkg() != nil && obj.Pkg().Path() == corePkgPath
}

// recvType returns the method receiver's type for a method call
// expression, or nil if call is not a selector-based call.
func recvType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	return s.Recv()
}

// calleeName returns the method/function name of call ("" when
// unresolvable).
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// txnEvent classifies what a call does to the thread's current short
// transaction.
type txnEvent int

const (
	evNone     txnEvent = iota
	evOpenLock          // opens a lock-holding short txn (Thr.ShortRW*)
	evOpenRO            // opens a read-only short txn (Thr.ShortRO*)
	evExtend            // widens the current txn, state unchanged
	evLockRead          // RO → combined: now holds a lock
	evUpgrade           // RO → combined: lock on success, released on failure
	evValid             // validation: released when it reports false
	evTerminal          // Commit/Abort/Discard/ShortDiscard: txn closed
)

// The terminal set is policy-independent by construction: every
// concurrency-control policy (see core.CC) funnels through the same
// descriptor Commit/Abort surface. On a Thr, only the openers and
// ShortDiscard touch the short record; everything else is a descriptor
// method.
var (
	thrOpenLockRe = regexp.MustCompile(`^ShortRW[1-4]$`)
	thrOpenRORe   = regexp.MustCompile(`^ShortRO[1-4]$`)
	descUpgradeRe = regexp.MustCompile(`^Upgrade[1-4]?$`)
)

// classifyTxnCall maps a call to its transaction event.
func classifyTxnCall(info *types.Info, call *ast.CallExpr) txnEvent {
	recv := recvType(info, call)
	if recv == nil {
		return evNone
	}
	name := calleeName(call)
	if _, ok := descTypeName(recv); ok {
		switch {
		case name == "Commit" || name == "Abort" || name == "Discard":
			return evTerminal
		case name == "Valid":
			return evValid
		case name == "Extend":
			return evExtend
		case name == "LockRead":
			return evLockRead
		case descUpgradeRe.MatchString(name):
			return evUpgrade
		}
		return evNone
	}
	if isThr(recv) {
		switch {
		case thrOpenLockRe.MatchString(name):
			return evOpenLock
		case thrOpenRORe.MatchString(name):
			return evOpenRO
		case name == "ShortDiscard":
			return evTerminal
		}
	}
	return evNone
}

// isBuiltinIdent reports whether id denotes the predeclared builtin of
// that name (panic, make, new, append, …) rather than a shadowing
// declaration.
func isBuiltinIdent(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// funcUsesShortTxns reports whether body contains any short-transaction
// call at all — a cheap pre-filter for the flow analyses.
func funcUsesShortTxns(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if classifyTxnCall(info, call) != evNone {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// passFiles returns the non-test files of the pass (the invariants are
// production-code contracts; _test.go files exercise deliberate
// misuse).
func passFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		if !analysis.IsTestFile(pass.Fset, f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}
