// Package client is the typed Go client for spectm-server's wire
// protocol: the data commands (GET/SET/DEL/CAS/MGET and the ordered
// SCAN), the replication
// introspection commands (ROLE, REPLPOS, WAITOFF, REPLSTATUS), and the
// topology admin commands (PROMOTE, REPLICAOF). The failover
// coordinator (failover.go), the nemesis harness and the e2e tests all
// drive servers through this package instead of hand-rolled socket
// code.
//
// A Client is one connection executing one command at a time
// (synchronized internally); it is safe for concurrent use but does not
// pipeline. Every call applies the client's I/O deadline, so a
// partitioned or black-holed server yields a timeout error instead of a
// hang — which is exactly what the nemesis tests need.
package client

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"spectm/internal/proto"
)

// ServerError is an error reply (-...) from the server, e.g.
// "READONLY replica; send writes to the primary".
type ServerError string

func (e ServerError) Error() string { return string(e) }

// IsReadOnly reports whether err is the replica write refusal.
func IsReadOnly(err error) bool {
	var se ServerError
	return errors.As(err, &se) && strings.HasPrefix(string(se), "READONLY")
}

// IsStale reports whether err is the fenced-primary write refusal: the
// server was a primary, but a newer epoch exists.
func IsStale(err error) bool {
	var se ServerError
	return errors.As(err, &se) && strings.HasPrefix(string(se), "STALE")
}

// Client is one synchronous connection to a spectm-server.
type Client struct {
	mu      sync.Mutex
	nc      net.Conn
	rd      *proto.Reader
	wr      *proto.Writer
	timeout time.Duration
}

// DefaultTimeout bounds every command round trip unless WithTimeout
// overrides it.
const DefaultTimeout = 5 * time.Second

// Option configures a Client.
type Option func(*Client)

// WithTimeout sets the per-command I/O deadline (0 disables it).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// Dial connects to a spectm-server's data listener at addr.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{timeout: DefaultTimeout}
	for _, o := range opts {
		o(c)
	}
	d := c.timeout
	if d == 0 {
		d = DefaultTimeout
	}
	nc, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.nc = nc
	c.rd = proto.NewReader(nc)
	c.wr = proto.NewWriter(nc)
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// Addr returns the remote address.
func (c *Client) Addr() string { return c.nc.RemoteAddr().String() }

// roundTrip sends one command and decodes one reply. The reply's Str
// fields alias the read buffer; callers copy what they keep.
func (c *Client) roundTrip(rep *proto.Reply, args ...string) error {
	if c.timeout > 0 {
		c.nc.SetDeadline(time.Now().Add(c.timeout))
	}
	c.wr.Array(len(args))
	for _, a := range args {
		c.wr.Arg(a)
	}
	if err := c.wr.Flush(); err != nil {
		return err
	}
	if err := c.rd.ReadReply(rep); err != nil {
		return err
	}
	if rep.Kind == proto.KindError {
		return ServerError(rep.Str)
	}
	return nil
}

// Ping round-trips a PING.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	return c.roundTrip(&rep, "PING")
}

// Get fetches key; ok is false when the key is absent.
func (c *Client) Get(key string) (val uint64, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	if err := c.roundTrip(&rep, "GET", key); err != nil {
		return 0, false, err
	}
	if rep.Null {
		return 0, false, nil
	}
	if rep.Kind != proto.KindInt {
		return 0, false, fmt.Errorf("client: GET reply kind %q", rep.Kind)
	}
	return uint64(rep.Int), true, nil
}

// Set writes key = val.
func (c *Client) Set(key string, val uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	return c.roundTrip(&rep, "SET", key, strconv.FormatUint(val, 10))
}

// Del removes key; ok reports whether it existed.
func (c *Client) Del(key string) (ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	if err := c.roundTrip(&rep, "DEL", key); err != nil {
		return false, err
	}
	return rep.Int == 1, nil
}

// CAS swaps key from old to new; ok reports whether it hit.
func (c *Client) CAS(key string, old, new uint64) (ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	if err := c.roundTrip(&rep, "CAS", key,
		strconv.FormatUint(old, 10), strconv.FormatUint(new, 10)); err != nil {
		return false, err
	}
	return rep.Int == 1, nil
}

// MGetResult is one key's slot in an MGet reply.
type MGetResult struct {
	Val uint64
	OK  bool
}

// MGet fetches keys as one atomic snapshot.
func (c *Client) MGet(keys ...string) ([]MGetResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	args := append(make([]string, 0, len(keys)+1), "MGET")
	args = append(args, keys...)
	if err := c.roundTrip(&rep, args...); err != nil {
		return nil, err
	}
	if rep.Kind != proto.KindArray {
		return nil, fmt.Errorf("client: MGET reply kind %q", rep.Kind)
	}
	out := make([]MGetResult, rep.Int)
	for i := range out {
		var el proto.Reply
		if err := c.rd.ReadReply(&el); err != nil {
			return nil, err
		}
		if !el.Null && el.Kind == proto.KindInt {
			out[i] = MGetResult{Val: uint64(el.Int), OK: true}
		}
	}
	return out, nil
}

// ScanEntry is one (key, value) pair in a Scan reply, in key order.
type ScanEntry struct {
	Key string
	Val uint64
}

// readScanReply decodes the flat 2n-element key/value reply array.
func (c *Client) readScanReply(rep *proto.Reply) ([]ScanEntry, error) {
	if rep.Kind != proto.KindArray || rep.Int%2 != 0 {
		return nil, fmt.Errorf("client: scan reply kind %q len %d", rep.Kind, rep.Int)
	}
	out := make([]ScanEntry, rep.Int/2)
	for i := range out {
		var k, v proto.Reply
		if err := c.rd.ReadReply(&k); err != nil {
			return nil, err
		}
		// Copy out: Str aliases the read buffer across ReadReply calls.
		key := string(k.Str)
		if err := c.rd.ReadReply(&v); err != nil {
			return nil, err
		}
		out[i] = ScanEntry{Key: key, Val: uint64(v.Int)}
	}
	return out, nil
}

// Scan returns every live key k with start ≤ k < end (empty end =
// unbounded) in order, up to limit entries (0 = all), with values.
func (c *Client) Scan(start, end string, limit int) ([]ScanEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	if err := c.roundTrip(&rep, "SCAN", start, end, strconv.Itoa(limit)); err != nil {
		return nil, err
	}
	return c.readScanReply(&rep)
}

// ReplPos returns the read-your-writes position token (REPLPOS).
func (c *Client) ReplPos() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	if err := c.roundTrip(&rep, "REPLPOS"); err != nil {
		return 0, err
	}
	return uint64(rep.Int), nil
}

// WaitOff blocks until the replica has applied primary position pos
// (WAITOFF). A -WAITTIMEOUT reply comes back as a ServerError.
func (c *Client) WaitOff(pos uint64, timeout time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The server may park up to the requested timeout; give the socket
	// deadline slack on top of it.
	saved := c.timeout
	if saved > 0 && timeout >= saved {
		c.timeout = timeout + time.Second
	}
	var rep proto.Reply
	err := c.roundTrip(&rep, "WAITOFF",
		strconv.FormatUint(pos, 10),
		strconv.FormatInt(timeout.Milliseconds(), 10))
	c.timeout = saved
	return err
}

// ReplStatus returns the raw "name value" lines of REPLSTATUS.
func (c *Client) ReplStatus() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	if err := c.roundTrip(&rep, "REPLSTATUS"); err != nil {
		return "", err
	}
	return string(rep.Str), nil
}

// Stats returns the raw "name value" lines of STATS.
func (c *Client) Stats() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	if err := c.roundTrip(&rep, "STATS"); err != nil {
		return "", err
	}
	return string(rep.Str), nil
}

// RoleInfo is the decoded epoch-carrying ROLE reply.
type RoleInfo struct {
	Role  string // "primary", "replica" or "standalone"
	Epoch uint64

	// Primary fields.
	Position uint64 // streamed WAL position (records)
	Replicas int    // connected replica links

	// Replica fields.
	Primary string // primary's replication address
	Link    string // replication link state
	Applied uint64 // applied position (records)
}

// Role fetches the server's role, epoch and positions (ROLE).
func (c *Client) Role() (RoleInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	if err := c.roundTrip(&rep, "ROLE"); err != nil {
		return RoleInfo{}, err
	}
	if rep.Kind != proto.KindArray || rep.Int < 2 {
		return RoleInfo{}, fmt.Errorf("client: ROLE reply kind %q len %d", rep.Kind, rep.Int)
	}
	els := make([]proto.Reply, rep.Int)
	var info RoleInfo
	for i := range els {
		if err := c.rd.ReadReply(&els[i]); err != nil {
			return RoleInfo{}, err
		}
		// Copy out: Str aliases the read buffer across ReadReply calls.
		els[i].Str = append([]byte(nil), els[i].Str...)
	}
	info.Role = string(els[0].Str)
	info.Epoch = uint64(els[1].Int)
	switch info.Role {
	case "primary":
		if len(els) >= 4 {
			info.Position = uint64(els[2].Int)
			info.Replicas = int(els[3].Int)
		}
	case "replica":
		if len(els) >= 5 {
			info.Primary = string(els[2].Str)
			info.Link = string(els[3].Str)
			info.Applied = uint64(els[4].Int)
		}
	}
	return info, nil
}

// Promote makes the server the primary (PROMOTE) and returns the new
// cluster epoch.
func (c *Client) Promote() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	if err := c.roundTrip(&rep, "PROMOTE"); err != nil {
		return 0, err
	}
	return uint64(rep.Int), nil
}

// ReplicaOf points the server at the primary whose replication listener
// is addr ("host:port").
func (c *Client) ReplicaOf(addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("client: REPLICAOF address: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	return c.roundTrip(&rep, "REPLICAOF", host, port)
}

// Detach sends REPLICAOF NO ONE: stop tailing, accept writes again.
func (c *Client) Detach() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep proto.Reply
	return c.roundTrip(&rep, "REPLICAOF", "NO", "ONE")
}
