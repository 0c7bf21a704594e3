package analyzers

import (
	"go/ast"
	"go/token"

	"spectm/internal/analysis"
)

// Txnpath checks that every control-flow path through a function that
// opens a lock-holding short transaction (ShortRW*, LockRead, a
// successful Upgrade) reaches a Commit or Abort before the function
// returns, panics, or loops around — the lostcancel of spectm: a leaked
// descriptor leaves value locks held forever and wedges every later
// writer of those locations.
//
// The analysis understands the engine's self-releasing calls: a false
// Valid(), a failed Upgrade and a combined Commit all release the locks
// themselves, so `if !d.Valid() { continue }` is a closed path. These
// rules hold under every concurrency-control policy (core.CC): the
// policies change how conflicts are detected, not which calls decide a
// transaction. A deferred Abort/Discard exempts the function's return
// paths. Functions using goto or labeled branches are skipped. The
// defining package (internal/core) is exempt — it manipulates the
// underlying records directly.
var Txnpath = &analysis.Analyzer{
	Name: "txnpath",
	Doc:  "every path that opens a lock-holding short transaction must Commit or Abort it",
	Run:  runTxnpath,
}

func runTxnpath(pass *analysis.Pass) error {
	if pass.Pkg.Path() == corePkgPath {
		return nil
	}
	for _, f := range passFiles(pass) {
		forEachFuncBody(f, func(name string, body *ast.BlockStmt) {
			if !funcUsesShortTxns(pass.Info, body) {
				return
			}
			t := newTxnFlow(pass.Info)
			t.onLeak = func(pos token.Pos, what string) {
				pass.Reportf(pos, "%s: %s reached with a lock-holding short transaction still open (missing Commit/Abort)", name, what)
			}
			t.onOpenWhileLock = func(pos token.Pos) {
				pass.Reportf(pos, "%s: short transaction opened while a lock-holding one is still undecided", name)
			}
			t.analyze(body)
		})
	}
	return nil
}

// forEachFuncBody visits every function declaration and function
// literal body in f. Literals are visited as independent functions
// (their transaction state does not leak into the enclosing frame).
func forEachFuncBody(f *ast.File, fn func(name string, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Name.Name, n.Body)
			}
		case *ast.FuncLit:
			fn("func literal", n.Body)
		}
		return true
	})
}
