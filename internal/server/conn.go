package server

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"unsafe"

	"spectm/internal/proto"
	"spectm/internal/shardmap"
	"spectm/internal/word"
)

// Command → short-transaction arity (the spectm.Map hot paths):
//
//	GET k            ShortRO2 (node.next, node.val); consecutive GETs
//	                 of a command run share one GetEach (execRun)
//	SET k v, update  ShortRO1 + LockRead → ShortRO1RW1 combined commit
//	SET k v, insert  chain walk + SingleCAS (clones the key: the only
//	                 hot command that must retain bytes beyond the call);
//	                 ShortRW2 (pred link, entry.hint) with an ordered
//	                 index: the publish also sets the entry's hint
//	DEL k            ShortRW2 mark + unlink (ShortRW3 with an ordered
//	                 index: the unlink also clears the entry's hint)
//	CAS k old new    ShortRO2 + Upgrade2 → ShortRO2RW1 combined commit
//	SWAP2 k1 k2      ShortRO2 + LockRead×2 → ShortRO2RW2 combined commit
//	MGET k1 k2       ShortRO4 (both keys present and distinct)
//	MGET k1..kn      bucket heads and first nodes touched, then one
//	                 full read-only transaction
//	SCAN s e n       a hash lookup to a live start key's entry (a
//	                 descent otherwise), then an ordered walk: two
//	                 SingleReads (link, hint) per entry, the hinted nodes
//	                 touched a page at a time, and one ShortRO3 (hint,
//	                 node.next, node.val) per candidate
//	ISCAN ix s e n   ordered walk over a secondary index's composite
//	                 entries; a hash lookup (ShortRO2) per candidate
//	IDXCREATE ix k   cold path: registers + backfills a secondary index
//	STATS, PING      no transaction
//
// Pipelined commands execute in runs (step): the command Next returns
// and the ones already buffered behind it, up to maxRun. Before a run
// executes, the chains of every key of its single- and two-key commands
// (GET, SET, DEL, CAS, SWAP2, a one- or two-key MGET: keyCmds) are
// walked together in one Thread.Touch, so the run's hash-chain cache
// misses are taken overlapped rather than one command at a time; the
// run then executes its commands one by one, in order, so every reply
// is the one one-at-a-time execution gives.
//
// Keys are passed to the map as zero-copy views of the read buffer
// (safe: those paths never retain the key), so steady-state commands
// run the whole decode→transaction→encode path without allocating.
type conn struct {
	s  *Server
	nc net.Conn
	rd *proto.Reader
	wr *proto.Writer
	th *shardmap.Thread

	// reused command-run scratch (step): the run's argument views,
	// packed — command i is rargs[rcmd[i]:rcmd[i+1]] — the keys it
	// touches, and one GetEach's keys and answers
	rargs  [maxRun * maxRunArgs][]byte
	rcmd   [maxRun + 1]int
	tkeys  [2 * maxRun]string
	gkeys  [maxRun]string
	gvals  [maxRun]shardmap.Value
	gfound [maxRun]bool
	// reused MGET scratch
	mkeys  []string
	mvals  []shardmap.Value
	mfound []bool
	// reused SCAN/ISCAN scratch
	skeys []string
	svals []shardmap.Value
	// reused STATS scratch
	stats []byte
}

// bstr views b as a string without copying. The result aliases the
// connection's read buffer: it is only valid during the current command
// and must never be stored (inserts clone first).
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// parseVal decodes a decimal payload argument.
func parseVal(b []byte) (word.Value, bool) {
	u, err := strconv.ParseUint(bstr(b), 10, 64)
	if err != nil || u > word.MaxPayload {
		return 0, false
	}
	return word.FromUint(u), true
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()
	th, ok := s.getThread()
	if !ok {
		s.refused.Add(1)
		nc.Write([]byte("-ERR max connections reached\r\n"))
		return
	}
	defer s.putThread(th)
	c := &conn{s: s, nc: nc, rd: proto.NewReader(nc), wr: proto.NewWriter(nc), th: th}
	s.accepted.Add(1)

	if !s.track(c) {
		// Raced a Shutdown; don't serve a connection Shutdown can't see.
		return
	}
	defer s.untrack(c)

	// The flush discipline that makes pipelining work: whenever the
	// reader is about to block on the socket, pending replies go out
	// first.
	c.rd.OnFill = c.wr.Flush

	for {
		if err := c.step(); err != nil {
			// EOF, peer reset, protocol error, or the Shutdown read
			// deadline. Everything read so far has been executed —
			// Next only fails once the buffered input is exhausted —
			// so flushing here completes the drain.
			c.wr.Flush()
			return
		}
	}
}

const (
	// maxRun caps how many pipelined commands one step runs together.
	maxRun = 64
	// maxRunArgs is the most arguments, the command name included, a
	// command of a run may have; a wider one ends the run and executes
	// after it.
	maxRunArgs = 4
)

// step executes the next command run, blocking until a command is
// buffered: the command Next returns and every command already buffered
// behind it, up to maxRun (collectRun). The run touches its keys' chains
// once (touchRun), then executes its commands in order (execRun); a
// command wider than maxRunArgs that ended the run executes after it,
// so replies keep the order of the commands.
func (c *conn) step() error {
	args, err := c.rd.Next()
	if err != nil {
		return err
	}
	if len(args) > maxRunArgs {
		c.execute(args)
		return nil
	}
	n, next := c.collectRun(args)
	c.touchRun(n)
	c.execRun(n)
	if next != nil {
		c.execute(next)
	}
	return nil
}

// collectRun packs first and the commands buffered right behind it, up
// to maxRun, into the run scratch, and returns how many it packed and the
// buffered command wider than maxRunArgs that ended the run, or nil.
// The argument views alias the read buffer, which NextBuffered never
// moves; they are copied out because the reader reuses its argument
// vector on every call.
//
//spectm:noalloc
func (c *conn) collectRun(first [][]byte) (int, [][]byte) {
	n, end := 0, 0
	for args := first; ; {
		end += copy(c.rargs[end:], args)
		n++
		c.rcmd[n] = end
		if n == maxRun {
			return n, nil
		}
		var ok bool
		if args, ok = c.rd.NextBuffered(); !ok {
			return n, nil
		}
		if len(args) > maxRunArgs {
			return n, args
		}
	}
}

// runTouchHook, when a test sets it, runs inside touchRun with the keys
// the run is about to touch.
var runTouchHook func(c *conn, keys []string)

// runCmd returns command i of the packed run.
func (c *conn) runCmd(i int) [][]byte { return c.rargs[c.rcmd[i]:c.rcmd[i+1]] }

// keyCmd describes a command whose keys a run touches (touchRun): its
// name, how many arguments follow the name (0: one or more), and how
// many of them, from the first, are keys (0: all). execute checks these
// commands' arities against the same table, so each command's argument
// layout is written down once.
type keyCmd struct {
	name     string
	arity    int
	keys     int
	arityErr string
}

const (
	cmdGET = iota
	cmdSET
	cmdDEL
	cmdCAS
	cmdSWAP2
	cmdMGET
)

var keyCmds = [...]keyCmd{
	cmdGET:   {"GET", 1, 1, "ERR wrong number of arguments for 'GET'"},
	cmdSET:   {"SET", 2, 1, "ERR wrong number of arguments for 'SET'"},
	cmdDEL:   {"DEL", 1, 1, "ERR wrong number of arguments for 'DEL'"},
	cmdCAS:   {"CAS", 3, 1, "ERR wrong number of arguments for 'CAS'"},
	cmdSWAP2: {"SWAP2", 2, 2, "ERR wrong number of arguments for 'SWAP2'"},
	cmdMGET:  {"MGET", 0, 0, "ERR wrong number of arguments for 'MGET'"},
}

// keyCmdOf returns cmd's index in keyCmds, or -1.
func keyCmdOf(cmd []byte) int {
	for i := range keyCmds {
		if proto.CmdEq(cmd, keyCmds[i].name) {
			return i
		}
	}
	return -1
}

// fits reports whether args, the arguments after the name, fit the
// command's arity.
func (k *keyCmd) fits(args [][]byte) bool {
	if k.arity == 0 {
		return len(args) > 0
	}
	return len(args) == k.arity
}

// keyArgs returns the keys among args, which fit the command's arity.
func (k *keyCmd) keyArgs(args [][]byte) [][]byte {
	if k.keys == 0 {
		return args
	}
	return args[:k.keys]
}

// touchRun walks the hash chains of every key of the run's single- and
// two-key commands in one Thread.Touch. It reads nothing a command
// uses, so a refused command costs only its touch; a wrong-arity one
// touches nothing, and an MGET of more than two keys touches its own
// chains (Thread.GetBatch).
//
//spectm:noalloc
func (c *conn) touchRun(n int) {
	k := 0
	for i := 0; i < n; i++ {
		args := c.runCmd(i)
		if len(args) == 0 {
			continue
		}
		j := keyCmdOf(args[0])
		if j < 0 || !keyCmds[j].fits(args[1:]) {
			continue
		}
		if keys := keyCmds[j].keyArgs(args[1:]); len(keys) <= 2 {
			for _, key := range keys {
				c.tkeys[k] = bstr(key)
				k++
			}
		}
	}
	if runTouchHook != nil {
		runTouchHook(c, c.tkeys[:k])
	}
	c.th.Touch(c.tkeys[:k])
}

// execRun executes the n commands of the run in order. Consecutive
// well-formed GETs are answered by one GetEach: each still reads at its
// own linearization point, in order (see shardmap.Thread.GetEach), and
// no other command runs between them, so the replies are the ones
// one-at-a-time execution gives.
func (c *conn) execRun(n int) {
	for i := 0; i < n; {
		args := c.runCmd(i)
		i++
		switch {
		case len(args) == 0: // a blank inline line
		case isGet(args):
			c.gkeys[0] = bstr(args[1])
			g := 1
			for ; i < n && isGet(c.runCmd(i)); i++ {
				c.gkeys[g] = bstr(c.runCmd(i)[1])
				g++
			}
			c.answerGets(g)
		default:
			c.execute(args)
		}
	}
}

// isGet reports whether args is a well-formed GET.
func isGet(args [][]byte) bool {
	return len(args) > 0 && proto.CmdEq(args[0], keyCmds[cmdGET].name) && keyCmds[cmdGET].fits(args[1:])
}

// answerGets reads the first n keys of the run scratch with one GetEach
// and writes their replies in order.
//
//spectm:noalloc
func (c *conn) answerGets(n int) {
	vals, found := c.gvals[:n], c.gfound[:n]
	c.th.GetEach(c.gkeys[:n], vals, found)
	for i := range vals {
		if found[i] {
			c.wr.Uint(vals[i].Uint())
		} else {
			c.wr.Null()
		}
	}
}

// writable refuses mutating commands on a replica and on a fenced
// primary (a replica handshake proved a newer epoch exists, so this
// node's history is about to be superseded). Called from the noalloc
// command paths: role/fence checks are atomic loads and the refusals
// are fixed strings.
func (c *conn) writable() bool {
	if c.s.role.Load() == roleReplica {
		c.wr.Error("READONLY replica; send writes to the primary")
		return false
	}
	if c.s.fencedBy.Load() != 0 {
		c.wr.Error("STALE primary fenced by a newer epoch; REPLICAOF the new primary or PROMOTE")
		return false
	}
	return true
}

func (c *conn) execute(args [][]byte) {
	cmd, args := args[0], args[1:]
	if j := keyCmdOf(cmd); j >= 0 {
		if !keyCmds[j].fits(args) {
			c.wr.Error(keyCmds[j].arityErr)
			return
		}
		switch j {
		case cmdGET:
			c.getCmd(args)
		case cmdSET:
			c.setCmd(args)
		case cmdDEL:
			c.delCmd(args)
		case cmdCAS:
			c.casCmd(args)
		case cmdSWAP2:
			if c.writable() {
				c.boolReply(c.th.Swap2(bstr(args[0]), bstr(args[1])))
			}
		case cmdMGET:
			c.mget(args)
		}
		return
	}
	switch {
	case proto.CmdEq(cmd, "SCAN"):
		c.scanCmd(args)
	case proto.CmdEq(cmd, "ISCAN"):
		c.iscanCmd(args)
	case proto.CmdEq(cmd, "IDXCREATE"):
		c.idxCreateCmd(args)
	case proto.CmdEq(cmd, "BGSAVE"):
		// Rotate + snapshot + prune, synchronously on this connection
		// (pipelined peers on other connections keep executing; their
		// appends go to the post-rotation log the snapshot composes
		// with). Errors — including persistence being disabled — come
		// back as error replies.
		if !c.writable() {
			return
		}
		if err := c.s.m.Save(); err != nil {
			c.wr.Error("ERR bgsave: " + err.Error())
		} else {
			c.wr.SimpleString("OK")
		}
	case proto.CmdEq(cmd, "STATS"):
		c.statsReply()
	case proto.CmdEq(cmd, "REPLSTATUS"):
		c.replStatusReply()
	case proto.CmdEq(cmd, "REPLPOS"):
		c.replPosReply()
	case proto.CmdEq(cmd, "WAITOFF"):
		c.waitOff(args)
	case proto.CmdEq(cmd, "ROLE"):
		c.roleReply()
	case proto.CmdEq(cmd, "PROMOTE"):
		c.promoteCmd(args)
	case proto.CmdEq(cmd, "REPLICAOF"):
		c.replicaOfCmd(args)
	case proto.CmdEq(cmd, "PING"):
		c.wr.SimpleString("PONG")
	default:
		c.wr.Error(fmt.Sprintf("ERR unknown command '%s'", cmd))
	}
}

// getCmd answers a GET that execRun did not: one passed to execute
// directly. It, setCmd, delCmd and casCmd take arguments whose arity
// execute checked (keyCmds).
//
//spectm:noalloc
func (c *conn) getCmd(args [][]byte) {
	c.gkeys[0] = bstr(args[0])
	c.answerGets(1)
}

// setCmd answers SET. The update fast path is allocation-free; a first
// write to a key deliberately clones it out of the read buffer (the
// only retention in the hot commands).
//
//spectm:noalloc
func (c *conn) setCmd(args [][]byte) {
	if !c.writable() {
		return
	}
	v, ok := parseVal(args[1])
	if !ok {
		c.wr.Error("ERR value is not an integer in [0, 2^62)")
		return
	}
	if !c.th.Update(bstr(args[0]), v) {
		// First write to this key: clone it out of the read buffer
		// and publish a fresh node. (A concurrent insert between
		// the Update miss and this Put just turns it back into an
		// update, which is fine — the clone is then garbage.)
		c.th.Put(strings.Clone(bstr(args[0])), v)
	}
	c.wr.SimpleString("OK")
}

//spectm:noalloc
func (c *conn) delCmd(args [][]byte) {
	if !c.writable() {
		return
	}
	c.boolReply(c.th.Delete(bstr(args[0])))
}

//spectm:noalloc
func (c *conn) casCmd(args [][]byte) {
	if !c.writable() {
		return
	}
	old, ok1 := parseVal(args[1])
	new, ok2 := parseVal(args[2])
	if !ok1 || !ok2 {
		c.wr.Error("ERR value is not an integer in [0, 2^62)")
		return
	}
	c.boolReply(c.th.CompareAndSwap(bstr(args[0]), old, new))
}

func (c *conn) boolReply(ok bool) {
	if ok {
		c.wr.Int(1)
	} else {
		c.wr.Int(0)
	}
}

// mget answers one atomic multi-key snapshot: ≤2 distinct present keys
// ride the ShortRO4 path inside GetBatch, anything wider one full
// read-only transaction.
func (c *conn) mget(args [][]byte) {
	n := len(args)
	if cap(c.mkeys) < n {
		c.mkeys = make([]string, n)
		c.mvals = make([]shardmap.Value, n)
		c.mfound = make([]bool, n)
	}
	keys, vals, found := c.mkeys[:n], c.mvals[:n], c.mfound[:n]
	for i, a := range args {
		keys[i] = bstr(a)
	}
	c.th.GetBatch(keys, vals, found)
	c.wr.Array(n)
	for i := range keys {
		if found[i] {
			c.wr.Uint(vals[i].Uint())
		} else {
			c.wr.Null()
		}
	}
}

// parseLimit decodes a SCAN/ISCAN limit argument (0 = unlimited).
func parseLimit(b []byte) (int, bool) {
	n, err := strconv.Atoi(bstr(b))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// scanReply encodes scan results as a flat array of alternating key
// bulk strings and value integers (2n elements for n keys).
func (c *conn) scanReply(keys []string, vals []shardmap.Value) {
	c.wr.Array(2 * len(keys))
	for i, k := range keys {
		c.wr.BulkString(k)
		c.wr.Uint(vals[i].Uint())
	}
}

// scanCmd answers SCAN start end limit: every live key k with
// start ≤ k < end (empty end = unbounded), in order, up to limit
// (0 = all). Reads are served on replicas too. The result slices are
// connection-scratch, so a steady-state scan allocates nothing beyond
// what the reply encoding needs.
func (c *conn) scanCmd(args [][]byte) {
	if len(args) != 3 {
		c.wr.Error("ERR wrong number of arguments for 'SCAN'")
		return
	}
	limit, ok := parseLimit(args[2])
	if !ok {
		c.wr.Error("ERR limit is not a non-negative integer")
		return
	}
	keys, vals, err := c.th.Scan(bstr(args[0]), bstr(args[1]), limit, c.skeys[:0], c.svals[:0])
	c.skeys, c.svals = keys, vals
	if err != nil {
		c.wr.Error("ERR scan: " + err.Error())
		return
	}
	c.scanReply(keys, vals)
}

// iscanCmd answers ISCAN index start end limit: live primary keys whose
// index key ik satisfies start ≤ ik < end, ordered by (ik, primary key).
func (c *conn) iscanCmd(args [][]byte) {
	if len(args) != 4 {
		c.wr.Error("ERR wrong number of arguments for 'ISCAN'")
		return
	}
	limit, ok := parseLimit(args[3])
	if !ok {
		c.wr.Error("ERR limit is not a non-negative integer")
		return
	}
	keys, vals, err := c.th.IndexScan(bstr(args[0]), bstr(args[1]), bstr(args[2]), limit, c.skeys[:0], c.svals[:0])
	c.skeys, c.svals = keys, vals
	if err != nil {
		c.wr.Error("ERR iscan: " + err.Error())
		return
	}
	c.scanReply(keys, vals)
}

// idxCreateCmd answers IDXCREATE name kind. Index definitions are
// retained (and logged), so the arguments are cloned out of the read
// buffer. Idempotent re-creation replies OK like the first call.
func (c *conn) idxCreateCmd(args [][]byte) {
	if len(args) != 2 {
		c.wr.Error("ERR wrong number of arguments for 'IDXCREATE'")
		return
	}
	if !c.writable() {
		return
	}
	if err := c.th.CreateIndex(string(args[0]), string(args[1])); err != nil {
		c.wr.Error("ERR idxcreate: " + err.Error())
		return
	}
	c.wr.SimpleString("OK")
}

// statsReply reports the map's live aggregate operation counters plus
// server-level connection counts as one bulk string of "name value"
// lines.
func (c *conn) statsReply() {
	s := c.s
	st := s.m.OpStats()
	s.mu.Lock()
	live := len(s.conns)
	s.mu.Unlock()

	b := c.stats[:0]
	appendStat := func(name string, v uint64) {
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, v, 10)
		b = append(b, '\n')
	}
	appendStat("keys", uint64(s.m.Len()))
	appendStat("conns", uint64(live))
	appendStat("accepted", s.accepted.Load())
	appendStat("refused", s.refused.Load())
	appendStat("engine_threads", uint64(s.e.Threads()))
	appendStat("ops", st.Ops())
	appendStat("gets", st.Gets)
	appendStat("get_hits", st.GetHits)
	appendStat("puts", st.Puts)
	appendStat("inserts", st.Inserts)
	appendStat("updates", st.Updates)
	appendStat("update_hits", st.UpdateHits)
	appendStat("deletes", st.Deletes)
	appendStat("delete_hits", st.DeleteHits)
	appendStat("cas", st.CAS)
	appendStat("cas_hits", st.CASHits)
	appendStat("swap2", st.Swaps)
	appendStat("swap2_hits", st.SwapHits)
	appendStat("mgets", st.Batches)
	appendStat("mget_keys", st.BatchKeys)
	appendStat("scans", st.Scans)
	appendStat("scan_keys", st.ScanKeys)
	appendStat("scan_fallbacks", st.ScanFallbacks)
	appendStat("iscans", st.IScans)
	appendStat("iscan_keys", st.IScanKeys)
	appendStat("idx_creates", st.IdxCreates)
	appendStat("index_searches", st.IndexSearches)
	appendStat("index_steps", st.IndexSteps)
	appendStat("shards", uint64(s.m.Shards()))
	appendStat("conflicts", st.Conflicts)
	appendStat("wal_bytes", uint64(s.m.LogSize()))
	c.stats = b
	c.wr.Bulk(b)
}
