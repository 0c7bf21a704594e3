package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"spectm/internal/analysis"
)

// Walorder enforces the durability ordering around the WAL:
//
//  1. In internal/shardmap, a WAL append (wal.Log Put/Delete/CAS/
//     Swap2, or a Thread.log* post-commit hook) must not run
//     while a short transaction is open — the record describes a
//     committed mutation, so it must be emitted strictly after the
//     owning commit. Appending from inside the transaction would
//     persist a value that may still abort.
//
//  2. In internal/wal, within any function that both writes the log
//     file (through *os.File or the package's File interface) and
//     publishes the frontier, the publication
//     (advanceCursor / rotateCursor / notifyLocked) must come after
//     the file write, and the durable watermark (advanceDurable) must
//     come after the fsync — replication ships only written bytes, and
//     Always-mode ackers must only wake once their record is on disk.
//
// Rule 2 is a lexical-order check scoped to the wal package's syncer;
// it catches the reorder-the-publish refactor, not arbitrary
// interprocedural shuffles.
var Walorder = &analysis.Analyzer{
	Name: "walorder",
	Doc:  "WAL appends must follow the owning commit; frontier publication must follow the file write/fsync",
	Run:  runWalorder,
}

func runWalorder(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	switch {
	case strings.HasSuffix(path, "internal/shardmap"):
		runWalAppendAfterCommit(pass)
	case strings.HasSuffix(path, "internal/wal"):
		runWalPublishOrder(pass)
	}
	return nil
}

// ---- rule 1: no appends inside an open short transaction ----

// isWalAppendCall recognizes the append entry points of *wal.Log and
// the shardmap post-commit hook helpers (Thread.logPut and friends).
func isWalAppendCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	recv := recvType(pass.Info, call)
	if recv == nil {
		return false
	}
	name := calleeName(call)
	if namedInSuffix(recv, "internal/wal", "Log") {
		switch name {
		case "Put", "Delete", "CAS", "Swap2", "append":
			return true
		}
		return false
	}
	if namedInSuffix(recv, "internal/shardmap", "Thread") {
		return strings.HasPrefix(name, "log") && len(name) > 3
	}
	return false
}

func runWalAppendAfterCommit(pass *analysis.Pass) {
	for _, f := range passFiles(pass) {
		forEachFuncBody(f, func(name string, body *ast.BlockStmt) {
			t := newTxnFlow(pass.Info)
			t.onCall = func(call *ast.CallExpr, s stateSet) {
				if s&(stLock|stRO) != 0 && isWalAppendCall(pass, call) {
					pass.Reportf(call.Pos(),
						"%s: WAL append inside an open short transaction — post-commit records must be emitted after the owning commit", name)
				}
			}
			t.analyze(body)
		})
	}
}

// ---- rule 2: write before publish, fsync before durable ----

func runWalPublishOrder(pass *analysis.Pass) {
	for _, f := range passFiles(pass) {
		forEachFuncBody(f, func(name string, body *ast.BlockStmt) {
			var firstWrite, firstSync, firstPublish, firstDurable ast.Node
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeName(call)
				recv := recvType(pass.Info, call)
				switch {
				case isLogFile(recv) && callee == "Write":
					if firstWrite == nil {
						firstWrite = call
					}
				case isLogFile(recv) && callee == "Sync":
					if firstSync == nil {
						firstSync = call
					}
				case recv != nil && namedInSuffix(recv, "internal/wal", "Log"):
					switch callee {
					case "advanceCursor", "rotateCursor", "notifyLocked":
						if firstPublish == nil {
							firstPublish = call
						}
					case "advanceDurable":
						if firstDurable == nil {
							firstDurable = call
						}
					}
				}
				return true
			})
			if firstWrite != nil && firstPublish != nil && firstPublish.Pos() < firstWrite.Pos() {
				pass.Reportf(firstPublish.Pos(),
					"%s: frontier published before the log file write — replication would ship bytes that are not in the file yet", name)
			}
			if firstSync != nil && firstDurable != nil && firstDurable.Pos() < firstSync.Pos() {
				pass.Reportf(firstDurable.Pos(),
					"%s: durable watermark advanced before fsync — Always-mode waiters would wake with their record still volatile", name)
			}
		})
	}
}

// isLogFile reports whether t is a log file handle the syncer writes
// through: *os.File, or internal/wal's File interface (the WrapFile
// seam every real log file sits behind).
func isLogFile(t types.Type) bool {
	return t != nil && (namedInSuffix(t, "os", "File") || namedInSuffix(t, "internal/wal", "File"))
}

// namedInSuffix reports whether t (behind pointers/aliases) is the
// named type name in a package whose path ends in pathSuffix: it
// matches the real module packages and, for "os", the standard
// library.
func namedInSuffix(t types.Type, pathSuffix, name string) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	p := obj.Pkg().Path()
	return p == pathSuffix || strings.HasSuffix(p, "/"+pathSuffix) || strings.HasSuffix(p, pathSuffix)
}
