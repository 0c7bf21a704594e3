// Wire codec: the replication stream rides the internal/proto command
// framing, so both ends reuse the server's zero-copy Reader/Writer. The
// helpers here are pure functions over argument vectors and payloads —
// the fuzzable surface of the protocol.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spectm/internal/proto"
	"spectm/internal/wal"
)

// ErrWire reports a malformed replication message. The stream is
// unsynchronized after it and the connection must drop.
var ErrWire = errors.New("repl: protocol error")

// parseUint parses a decimal bulk argument.
func parseUint(b []byte) (uint64, error) {
	if len(b) == 0 || len(b) > 20 {
		return 0, fmt.Errorf("%w: bad integer %q", ErrWire, b)
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("%w: bad integer %q", ErrWire, b)
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, fmt.Errorf("%w: integer %q overflows", ErrWire, b)
		}
		n = n*10 + d
	}
	return n, nil
}

// parseOff parses a log-file byte offset: it must cover at least the
// file header and fit an int64.
func parseOff(b []byte) (int64, error) {
	off, err := parseUint(b)
	if err != nil {
		return 0, err
	}
	if off < wal.LogHeaderSize || off > 1<<62 {
		return 0, fmt.Errorf("%w: offset %d out of range", ErrWire, off)
	}
	return int64(off), nil
}

// parseGen parses a generation number, which is never 0.
func parseGen(b []byte) (uint64, error) {
	gen, err := parseUint(b)
	if err != nil {
		return 0, err
	}
	if gen == 0 {
		return 0, fmt.Errorf("%w: generation 0", ErrWire)
	}
	return gen, nil
}

// hello is a parsed replica handshake.
type hello struct {
	psync bool
	gen   uint64
	off   int64  // 0 for SYNC
	epoch uint64 // replica's cluster epoch (fencing)
}

// parseHello decodes the replica's first command: "SYNC [epoch]" or
// "PSYNC gen off [epoch]". The trailing epoch is optional for
// compatibility with pre-failover replicas, which are epoch 0.
func parseHello(args [][]byte) (hello, error) {
	if len(args) == 0 {
		return hello{}, fmt.Errorf("%w: empty handshake", ErrWire)
	}
	var h hello
	var err error
	epochArg := 1 // index of the optional trailing epoch
	switch {
	case proto.CmdEq(args[0], cmdSync):
		if len(args) != 1 && len(args) != 2 {
			return hello{}, fmt.Errorf("%w: SYNC takes at most an epoch", ErrWire)
		}
	case proto.CmdEq(args[0], cmdPSync):
		if len(args) != 3 && len(args) != 4 {
			return hello{}, fmt.Errorf("%w: PSYNC wants gen, off [, epoch]", ErrWire)
		}
		h.psync = true
		if h.gen, err = parseGen(args[1]); err != nil {
			return hello{}, err
		}
		if h.off, err = parseOff(args[2]); err != nil {
			return hello{}, err
		}
		epochArg = 3
	default:
		return hello{}, fmt.Errorf("%w: unexpected handshake command %q", ErrWire, args[0])
	}
	if len(args) > epochArg {
		if h.epoch, err = parseUint(args[epochArg]); err != nil {
			return hello{}, err
		}
	}
	return h, nil
}

// sendHello writes the replica's handshake.
func sendHello(w *proto.Writer, h hello) {
	if !h.psync {
		w.Array(2)
		w.Arg(cmdSync)
		w.ArgUint(h.epoch)
		return
	}
	w.Array(4)
	w.Arg(cmdPSync)
	w.ArgUint(h.gen)
	w.ArgUint(uint64(h.off))
	w.ArgUint(h.epoch)
}

// parseAck decodes "ACK recs bytes" (cumulative, stream-relative).
func parseAck(args [][]byte) (recs, bytes uint64, err error) {
	if len(args) != 3 || !proto.CmdEq(args[0], cmdAck) {
		return 0, 0, fmt.Errorf("%w: expected ACK", ErrWire)
	}
	if recs, err = parseUint(args[1]); err != nil {
		return 0, 0, err
	}
	if bytes, err = parseUint(args[2]); err != nil {
		return 0, 0, err
	}
	return recs, bytes, nil
}

// message is one parsed primary→replica stream message.
type message struct {
	kind byte // 'F', 'C', 'S', 'E', 'B', 'R', 'P'
	gen  uint64
	off  int64 // FULL / CONT cursor, BATCH start

	// FULL / CONT
	baseRecs  uint64
	baseBytes uint64
	epoch     uint64 // primary's cluster epoch (fencing)

	// SNAP / BATCH
	payload []byte // aliases the reader's buffer

	// PING
	recs  uint64
	bytes uint64
}

// parseMessage decodes one primary→replica message into m. m.payload
// aliases args and is valid only until the reader's next frame.
func parseMessage(args [][]byte, m *message) error {
	if len(args) == 0 {
		return fmt.Errorf("%w: empty message", ErrWire)
	}
	var err error
	switch {
	case proto.CmdEq(args[0], cmdFull), proto.CmdEq(args[0], cmdCont):
		m.kind = 'F'
		if proto.CmdEq(args[0], cmdCont) {
			m.kind = 'C'
		}
		if len(args) != 5 && len(args) != 6 {
			return fmt.Errorf("%w: %s wants gen, recs, bytes, off [, epoch]", ErrWire, args[0])
		}
		if m.gen, err = parseGen(args[1]); err != nil {
			return err
		}
		if m.baseRecs, err = parseUint(args[2]); err != nil {
			return err
		}
		if m.baseBytes, err = parseUint(args[3]); err != nil {
			return err
		}
		if m.off, err = parseOff(args[4]); err != nil {
			return err
		}
		m.epoch = 0
		if len(args) == 6 {
			if m.epoch, err = parseUint(args[5]); err != nil {
				return err
			}
		}
		return nil
	case proto.CmdEq(args[0], cmdSnap):
		m.kind = 'S'
		if len(args) != 2 {
			return fmt.Errorf("%w: SNAP wants one payload", ErrWire)
		}
		m.payload = args[1]
		return nil
	case proto.CmdEq(args[0], cmdSnapEnd):
		m.kind = 'E'
		if len(args) != 1 {
			return fmt.Errorf("%w: SNAPEND takes no arguments", ErrWire)
		}
		return nil
	case proto.CmdEq(args[0], cmdBatch):
		m.kind = 'B'
		if len(args) != 4 {
			return fmt.Errorf("%w: BATCH wants gen, off, payload", ErrWire)
		}
		if m.gen, err = parseGen(args[1]); err != nil {
			return err
		}
		if m.off, err = parseOff(args[2]); err != nil {
			return err
		}
		if len(args[3]) == 0 {
			return fmt.Errorf("%w: empty batch", ErrWire)
		}
		m.payload = args[3]
		return nil
	case proto.CmdEq(args[0], cmdRotate):
		m.kind = 'R'
		if len(args) != 2 {
			return fmt.Errorf("%w: ROTATE wants a generation", ErrWire)
		}
		m.gen, err = parseGen(args[1])
		return err
	case proto.CmdEq(args[0], cmdPing):
		m.kind = 'P'
		if len(args) != 3 {
			return fmt.Errorf("%w: PING wants recs, bytes", ErrWire)
		}
		if m.recs, err = parseUint(args[1]); err != nil {
			return err
		}
		if m.bytes, err = parseUint(args[2]); err != nil {
			return err
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown message %q", ErrWire, args[0])
	}
}

// splitRecords finds the longest prefix of p that is whole record
// frames, returning its byte length and record count. A frame whose
// header is implausible (zero or oversized body) reports ErrCorrupt:
// on the sender that means the local file is damaged, on the replica a
// broken stream.
func splitRecords(p []byte) (n, recs int, err error) {
	for len(p)-n >= 8 {
		bodyLen := binary.LittleEndian.Uint32(p[n+4:])
		if bodyLen == 0 || bodyLen > wal.MaxBody {
			return n, recs, fmt.Errorf("%w: body length %d", wal.ErrCorrupt, bodyLen)
		}
		end := n + 8 + int(bodyLen)
		if end > len(p) {
			break
		}
		n, recs = end, recs+1
	}
	return n, recs, nil
}
