package proto

import (
	"fmt"
	"io"
)

// Reader decodes commands (server side) or replies (client side) from a
// byte stream. It is not safe for concurrent use.
type Reader struct {
	src io.Reader
	buf []byte // window buf[r:w] holds unconsumed bytes
	r   int
	w   int

	args [][]byte // reused argument vector returned by Next

	// OnFill, when set, runs immediately before every read from the
	// underlying stream — i.e. whenever the Reader is about to block.
	// The server hooks its reply-writer flush here so that a pipelined
	// peer always receives the replies it is waiting on before the
	// server waits for more input.
	OnFill func() error
}

// NewReader wraps src.
func NewReader(src io.Reader) *Reader {
	return &Reader{src: src, buf: make([]byte, 4096)}
}

// Reset re-arms the reader on a new stream, dropping buffered input but
// keeping the allocated buffers.
func (rd *Reader) Reset(src io.Reader) {
	rd.src = src
	rd.r, rd.w = 0, 0
}

// errIncomplete signals that the buffer does not yet hold a full frame.
var errIncomplete = fmt.Errorf("proto: incomplete frame")

// protoErrf builds a protocol-violation error. A protocol error tears
// the connection down, so this path is allowed to allocate.
//
//spectm:coldpath
func protoErrf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// fill reads more bytes from the stream, compacting or growing the
// buffer as needed.
func (rd *Reader) fill(limit int) error {
	if rd.OnFill != nil {
		if err := rd.OnFill(); err != nil {
			return err
		}
	}
	if rd.r > 0 {
		// Compact: frames under parse always restart from rd.r, so
		// moving the window is safe between Next/Read* calls.
		copy(rd.buf, rd.buf[rd.r:rd.w])
		rd.w -= rd.r
		rd.r = 0
	}
	if rd.w == len(rd.buf) {
		if err := rd.grow(limit); err != nil {
			return err
		}
	}
	n, err := rd.src.Read(rd.buf[rd.w:])
	rd.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// grow doubles the buffer up to limit. Growth is amortized away by the
// doubling: a steady-state connection reaches its high-water size once
// and never allocates here again.
//
//spectm:coldpath
func (rd *Reader) grow(limit int) error {
	if len(rd.buf) >= limit {
		return protoErrf("%w: frame exceeds %d bytes", ErrProtocol, limit)
	}
	next := make([]byte, 2*len(rd.buf))
	copy(next, rd.buf[:rd.w])
	rd.buf = next
	return nil
}

// line returns the next \r\n- (or bare \n-) terminated line starting at
// offset p, excluding the terminator, plus the offset just past it.
func (rd *Reader) line(p int) ([]byte, int, error) {
	for i := p; i < rd.w; i++ {
		if rd.buf[i] == '\n' {
			end := i
			if end > p && rd.buf[end-1] == '\r' {
				end--
			}
			return rd.buf[p:end], i + 1, nil
		}
	}
	return nil, 0, errIncomplete
}

// integer parses a decimal (optionally negative) integer line at p.
func (rd *Reader) integer(p int) (int64, int, error) {
	ln, next, err := rd.line(p)
	if err != nil {
		return 0, 0, err
	}
	neg := false
	if len(ln) > 0 && (ln[0] == '-' || ln[0] == '+') {
		neg = ln[0] == '-'
		ln = ln[1:]
	}
	if len(ln) == 0 || len(ln) > 19 {
		return 0, 0, protoErrf("%w: bad integer", ErrProtocol)
	}
	var n int64
	for _, c := range ln {
		if c < '0' || c > '9' {
			return 0, 0, protoErrf("%w: bad integer", ErrProtocol)
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, next, nil
}

// Next returns the next command's arguments, blocking (via fill) until
// one full command is buffered. The returned slices alias the reader's
// buffer and are valid only until the next call. A blank inline line
// yields a zero-argument command (callers should skip it).
//
//spectm:noalloc
func (rd *Reader) Next() ([][]byte, error) {
	for {
		args, adv, err := rd.parseCommand()
		if err == nil {
			rd.r += adv
			return args, nil
		}
		if err != errIncomplete {
			return nil, err
		}
		limit := MaxInline
		if rd.r < rd.w && rd.buf[rd.r] == '*' {
			limit = MaxArgs * (MaxBulk + 32)
		}
		if err := rd.fill(limit); err != nil {
			return nil, err
		}
	}
}

// NextBuffered returns the next command only when it is already fully
// buffered. It never reads from the stream and never moves the buffered
// window — only fill does — so byte slices returned by earlier Next and
// NextBuffered calls stay valid; the argument vector itself is reused
// by every call. ok is false when the buffer holds no complete command
// or the next frame is malformed; the input is then left untouched, and
// Next reports the error.
//
//spectm:noalloc
func (rd *Reader) NextBuffered() (args [][]byte, ok bool) {
	args, adv, err := rd.parseCommand()
	if err != nil {
		return nil, false
	}
	rd.r += adv
	return args, true
}

// parseCommand attempts to decode one command from the buffered window.
// It returns the argument vector and the number of bytes consumed, or
// errIncomplete when more input is needed.
func (rd *Reader) parseCommand() ([][]byte, int, error) {
	if rd.r == rd.w {
		return nil, 0, errIncomplete
	}
	if rd.buf[rd.r] != '*' {
		return rd.parseInline()
	}
	argc, p, err := rd.integer(rd.r + 1)
	if err != nil {
		return nil, 0, err
	}
	if argc < 0 || argc > MaxArgs {
		return nil, 0, protoErrf("%w: argc %d out of range", ErrProtocol, argc)
	}
	rd.args = rd.args[:0]
	for i := int64(0); i < argc; i++ {
		if p >= rd.w {
			return nil, 0, errIncomplete
		}
		if rd.buf[p] != '$' {
			return nil, 0, protoErrf("%w: expected bulk string, got %q", ErrProtocol, rd.buf[p])
		}
		n, q, err := rd.integer(p + 1)
		if err != nil {
			return nil, 0, err
		}
		if n < 0 || n > MaxBulk {
			return nil, 0, protoErrf("%w: bulk length %d out of range", ErrProtocol, n)
		}
		if q+int(n)+2 > rd.w {
			return nil, 0, errIncomplete
		}
		if rd.buf[q+int(n)] != '\r' || rd.buf[q+int(n)+1] != '\n' {
			return nil, 0, protoErrf("%w: bulk string missing terminator", ErrProtocol)
		}
		rd.args = append(rd.args, rd.buf[q:q+int(n)])
		p = q + int(n) + 2
	}
	return rd.args, p - rd.r, nil
}

// parseInline decodes one space-separated command line.
func (rd *Reader) parseInline() ([][]byte, int, error) {
	ln, next, err := rd.line(rd.r)
	if err != nil {
		return nil, 0, err
	}
	rd.args = rd.args[:0]
	i := 0
	for i < len(ln) {
		for i < len(ln) && (ln[i] == ' ' || ln[i] == '\t') {
			i++
		}
		j := i
		for j < len(ln) && ln[j] != ' ' && ln[j] != '\t' {
			j++
		}
		if j > i {
			if len(rd.args) == MaxArgs {
				return nil, 0, protoErrf("%w: more than %d inline arguments", ErrProtocol, MaxArgs)
			}
			rd.args = append(rd.args, ln[i:j])
		}
		i = j
	}
	return rd.args, next - rd.r, nil
}

// Reply is one decoded server reply. Str aliases the reader's buffer
// and is valid only until the next ReadReply/Next call.
type Reply struct {
	Kind byte   // '+', '-', ':', '$' or '*'
	Int  int64  // ':' value; '*' element count
	Str  []byte // '+'/'-' text, '$' payload (nil when Null)
	Null bool   // '$-1' null bulk
}

// ReadReply decodes the next reply frame into rep. For an array reply
// ('*'), only the header is consumed: the caller reads rep.Int element
// replies next.
//
//spectm:noalloc
func (rd *Reader) ReadReply(rep *Reply) error {
	for {
		adv, err := rd.parseReply(rep)
		if err == nil {
			rd.r += adv
			return nil
		}
		if err != errIncomplete {
			return err
		}
		if err := rd.fill(MaxBulk + 32); err != nil {
			return err
		}
	}
}

func (rd *Reader) parseReply(rep *Reply) (int, error) {
	if rd.r == rd.w {
		return 0, errIncomplete
	}
	*rep = Reply{Kind: rd.buf[rd.r]}
	switch rep.Kind {
	case KindSimple, KindError:
		ln, next, err := rd.line(rd.r + 1)
		if err != nil {
			return 0, err
		}
		rep.Str = ln
		return next - rd.r, nil
	case KindInt:
		n, next, err := rd.integer(rd.r + 1)
		if err != nil {
			return 0, err
		}
		rep.Int = n
		return next - rd.r, nil
	case KindBulk:
		n, p, err := rd.integer(rd.r + 1)
		if err != nil {
			return 0, err
		}
		if n == -1 {
			rep.Null = true
			return p - rd.r, nil
		}
		if n < 0 || n > MaxBulk {
			return 0, protoErrf("%w: bulk length %d out of range", ErrProtocol, n)
		}
		if p+int(n)+2 > rd.w {
			return 0, errIncomplete
		}
		if rd.buf[p+int(n)] != '\r' || rd.buf[p+int(n)+1] != '\n' {
			return 0, protoErrf("%w: bulk reply missing terminator", ErrProtocol)
		}
		rep.Str = rd.buf[p : p+int(n)]
		return p + int(n) + 2 - rd.r, nil
	case KindArray:
		n, next, err := rd.integer(rd.r + 1)
		if err != nil {
			return 0, err
		}
		if n < 0 || n > MaxArray {
			return 0, protoErrf("%w: array length %d out of range", ErrProtocol, n)
		}
		rep.Int = n
		return next - rd.r, nil
	default:
		return 0, protoErrf("%w: unknown reply type %q", ErrProtocol, rep.Kind)
	}
}
