package main

import (
	"errors"
	"io"
	"strconv"
	"unsafe"

	"spectm/internal/proto"
	"spectm/internal/shardmap"
	"spectm/internal/word"
)

// encodeOp frames o as a wire command. old is CAS's expected value.
func encodeOp(wr *proto.Writer, o *op, old uint64, keys []string) {
	switch o.kind {
	case opGet:
		wr.Array(2)
		wr.Arg("GET")
		wr.Arg(keys[o.key])
	case opSet:
		wr.Array(3)
		wr.Arg("SET")
		wr.Arg(keys[o.key])
		wr.ArgUint(o.val)
	case opDel:
		wr.Array(2)
		wr.Arg("DEL")
		wr.Arg(keys[o.key])
	case opCAS:
		wr.Array(4)
		wr.Arg("CAS")
		wr.Arg(keys[o.key])
		wr.ArgUint(old)
		wr.ArgUint(o.val)
	case opSwap2:
		wr.Array(3)
		wr.Arg("SWAP2")
		wr.Arg(keys[o.key])
		wr.Arg(keys[o.key^1])
	case opMGet2, opMGet8:
		n := 2
		if o.kind == opMGet8 {
			n = 8
		}
		wr.Array(1 + n)
		wr.Arg("MGET")
		wr.Arg(keys[o.key])
		for i := 1; i < n; i++ {
			wr.Arg(keys[o.mgetKey(i, len(keys))])
		}
	case opScan:
		wr.Array(4)
		wr.Arg("SCAN")
		wr.Arg(keys[o.key])
		wr.Arg("")
		wr.ArgUint(scanLimit)
	}
}

// readResult decodes the reply to o into res. A reply of the wrong
// shape sets res.bad (the frames are still consumed, so the stream
// stays aligned); only a transport or framing error is returned.
func readResult(rd *proto.Reader, o *op, res *result) error {
	var rep proto.Reply
	if err := rd.ReadReply(&rep); err != nil {
		return err
	}
	*res = result{}
	switch o.kind {
	case opGet:
		switch {
		case rep.Kind == proto.KindInt:
			res.n, res.vals[0] = 1, uint64(rep.Int)
		case rep.Kind == proto.KindBulk && rep.Null:
		default:
			res.bad = true
		}
	case opSet:
		res.ok = rep.Kind == proto.KindSimple && string(rep.Str) == "OK"
		res.bad = !res.ok
	case opDel, opCAS, opSwap2:
		res.ok = rep.Int == 1
		res.bad = rep.Kind != proto.KindInt || (rep.Int != 0 && rep.Int != 1)
	case opMGet2, opMGet8, opScan:
		if rep.Kind != proto.KindArray {
			res.bad = true
			return nil
		}
		return readArray(rd, o.kind == opScan, int(rep.Int), res)
	}
	return nil
}

// readArray consumes n element replies: values (or nulls) for MGET,
// alternating key bulks and values for SCAN.
func readArray(rd *proto.Reader, scan bool, n int, res *result) error {
	var rep proto.Reply
	entries := n
	if scan {
		entries = n / 2
		res.bad = n%2 != 0
	}
	if entries > maxResult {
		res.bad = true
	}
	res.n = entries
	for i := 0; i < n; i++ {
		if err := rd.ReadReply(&rep); err != nil {
			return err
		}
		e := i
		if scan {
			e = i / 2
		}
		if res.bad || e >= maxResult {
			continue
		}
		switch {
		case scan && i%2 == 0:
			k, ok := keyIndex(rep.Str)
			if rep.Kind != proto.KindBulk || !ok {
				res.bad = true
			}
			res.keys[e] = uint32(k)
		case rep.Kind == proto.KindInt:
			res.vals[e], res.found[e] = uint64(rep.Int), true
		case !scan && rep.Kind == proto.KindBulk && rep.Null:
		default:
			res.bad = true
		}
	}
	return nil
}

// ---- r4: the command and reply codecs round-tripped in memory ----

// memPipe is an in-memory byte stream: a proto.Writer appends to it and
// a proto.Reader drains it, so rung r4 pays exactly the encode/decode
// work of the wire without a socket.
type memPipe struct {
	buf []byte
	r   int
	n   int64 // bytes ever written
}

func (p *memPipe) Write(b []byte) (int, error) {
	if p.r == len(p.buf) {
		p.buf, p.r = p.buf[:0], 0
	}
	p.buf = append(p.buf, b...)
	p.n += int64(len(b))
	return len(b), nil
}

func (p *memPipe) Read(b []byte) (int, error) {
	if p.r == len(p.buf) {
		return 0, io.EOF
	}
	n := copy(b, p.buf[p.r:])
	p.r += n
	return n, nil
}

func bstr(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

var errDispatch = errors.New("bench: r4 dispatch: malformed command")

// dispatch executes one decoded command against th and encodes its
// reply: the ledger's stand-in for internal/server's conn.execute,
// which is not exported. It covers the eight commands the workloads
// send, through the same shardmap calls in the same order.
func dispatch(args [][]byte, th *shardmap.Thread, wr *proto.Writer, sc *scratch) error {
	if len(args) < 2 {
		return errDispatch
	}
	cmd, args := bstr(args[0]), args[1:]
	boolReply := func(ok bool) {
		if ok {
			wr.Int(1)
		} else {
			wr.Int(0)
		}
	}
	parse := func(b []byte) word.Value {
		u, _ := strconv.ParseUint(bstr(b), 10, 64)
		return word.FromUint(u)
	}
	switch cmd {
	case "GET":
		if v, ok := th.Get(bstr(args[0])); ok {
			wr.Uint(v.Uint())
		} else {
			wr.Null()
		}
	case "SET":
		v := parse(args[1])
		if !th.Update(bstr(args[0]), v) {
			th.Put(string(args[0]), v)
		}
		wr.SimpleString("OK")
	case "DEL":
		boolReply(th.Delete(bstr(args[0])))
	case "CAS":
		boolReply(th.CompareAndSwap(bstr(args[0]), parse(args[1]), parse(args[2])))
	case "SWAP2":
		boolReply(th.Swap2(bstr(args[0]), bstr(args[1])))
	case "MGET":
		n := len(args)
		for i, a := range args {
			sc.keys[i] = bstr(a)
		}
		th.GetBatch(sc.keys[:n], sc.vals[:n], sc.found[:n])
		wr.Array(n)
		for i := 0; i < n; i++ {
			if sc.found[i] {
				wr.Uint(sc.vals[i].Uint())
			} else {
				wr.Null()
			}
		}
	case "SCAN":
		limit, _ := strconv.Atoi(bstr(args[2]))
		ks, vs, err := th.Scan(bstr(args[0]), bstr(args[1]), limit, sc.skeys[:0], sc.svals[:0])
		if err != nil {
			return err
		}
		sc.skeys, sc.svals = ks, vs
		wr.Array(2 * len(ks))
		for i, k := range ks {
			wr.BulkString(k)
			wr.Uint(vs[i].Uint())
		}
	default:
		return errDispatch
	}
	return nil
}

// scratch is the reused argument space of one shardmap caller.
type scratch struct {
	keys  [8]string
	vals  [8]shardmap.Value
	found [8]bool
	skeys []string
	svals []shardmap.Value
}
