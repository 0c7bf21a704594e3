package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spectm/internal/proto"
)

// ioTimeout is the read deadline armed before every wait for replies: a
// server that stops answering fails the run instead of hanging it.
const ioTimeout = 15 * time.Second

// ---- locating and building ----

// repoRoot walks up from the working directory to the spectm module
// root (the driver starts the benchmark there; `go run .` and `go test`
// start it in tests/bench).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module spectm\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no spectm module root above the working directory")
		}
		dir = parent
	}
}

// buildDir is where binaries, data directories and traces go: inside
// the checkout, and ignored by git.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildServer compiles cmd/spectm-server from the checkout's source.
// The go build cache makes the repeat builds of later runs cheap.
func buildServer(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "spectm-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spectm-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/spectm-server: %v\n%s", err, out)
	}
	return bin, nil
}

// ---- server processes ----

// proc is one spawned spectm-server.
type proc struct {
	cmd      *exec.Cmd
	addr     string // data-plane address, parsed from the start-up log
	replAddr string // replication listener, when requested
	exited   chan struct{}
	waitErr  error

	mu   sync.Mutex
	tail []string // last stderr lines, for crash reports
}

// startProc launches the server on loopback ports of the kernel's
// choosing and returns once it has logged its listening addresses.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The server must not outlive a generator that dies abnormally.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	wantRepl := false
	for _, a := range args {
		wantRepl = wantRepl || a == "-repl-listen"
	}
	ready := make(chan struct{})
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 40 {
				p.tail = p.tail[1:]
			}
			if a, ok := addrAfter(line, "listening on "); ok && p.addr == "" {
				p.addr = a
			}
			if a, ok := addrAfter(line, "replication listener on "); ok {
				p.replAddr = a
			}
			done := p.addr != "" && (!wantRepl || p.replAddr != "")
			p.mu.Unlock()
			if done && !signalled {
				signalled = true
				close(ready)
			}
		}
	}()
	go func() {
		<-logDone // Wait closes the pipe; drain it first
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	select {
	case <-ready:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("bench: spectm-server exited during start-up: %v\n%s", p.waitErr, p.stderrTail())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("bench: spectm-server did not report its address\n%s", p.stderrTail())
	}
}

// addrAfter extracts the host:port that follows marker in a log line.
func addrAfter(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexAny(rest, " ("); j >= 0 {
		rest = rest[:j]
	}
	return rest, rest != ""
}

// stderrTail returns the process's last log lines ("" for no process).
func (p *proc) stderrTail() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop kills the process and waits until it has ended.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Kill()
	<-p.exited
}

// ---- connections ----

// wireConn is one pipelined client connection.
type wireConn struct {
	nc net.Conn
	rd *proto.Reader
	wr *proto.Writer
}

func dialWire(addr string) (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return &wireConn{nc: nc, rd: proto.NewReader(nc), wr: proto.NewWriter(nc)}, nil
}

func (c *wireConn) close() {
	if c != nil {
		c.nc.Close()
	}
}

// flush sends the buffered commands and arms the read deadline for
// their replies.
func (c *wireConn) flush() error {
	if err := c.wr.Flush(); err != nil {
		return err
	}
	return c.nc.SetReadDeadline(time.Now().Add(ioTimeout))
}

// ctl round-trips one control command and returns its reply: the text
// of a simple, error or bulk reply, or the decimal of an integer.
func (c *wireConn) ctl(args ...string) (string, error) {
	c.wr.Array(len(args))
	for _, a := range args {
		c.wr.Arg(a)
	}
	if err := c.flush(); err != nil {
		return "", err
	}
	var rep proto.Reply
	if err := c.rd.ReadReply(&rep); err != nil {
		return "", err
	}
	switch rep.Kind {
	case proto.KindError:
		return "", fmt.Errorf("bench: %s: server error: %s", args[0], rep.Str)
	case proto.KindInt:
		return strconv.FormatInt(rep.Int, 10), nil
	case proto.KindArray:
		return "", fmt.Errorf("bench: %s: unexpected array reply", args[0])
	}
	return string(rep.Str), nil
}

// statLines parses the "name value" lines of STATS / REPLSTATUS,
// including the key=value fields of a replica link line.
func statLines(text string) map[string]uint64 {
	out := make(map[string]uint64)
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil && len(fields) == 2 {
			out[fields[0]] = v
			continue
		}
		for _, f := range fields[1:] {
			if k, v, ok := strings.Cut(f, "="); ok {
				if u, err := strconv.ParseUint(v, 10, 64); err == nil {
					out[fields[0]+"."+k] = u
				}
			}
		}
	}
	return out
}

func (c *wireConn) stats(cmd string) (map[string]uint64, error) {
	text, err := c.ctl(cmd)
	if err != nil {
		return nil, err
	}
	return statLines(text), nil
}

// preloadWire SETs every key to its preload value, the key space split
// across conns, each connection pipelining in chunks.
func preloadWire(conns []*wireConn, keys []string) error {
	const chunk = 256
	errs := make(chan error, len(conns))
	for ci, c := range conns {
		go func(ci int, c *wireConn) {
			var rep proto.Reply
			lo, hi := ci*len(keys)/len(conns), (ci+1)*len(keys)/len(conns)
			for base := lo; base < hi; base += chunk {
				n := min(chunk, hi-base)
				for i := base; i < base+n; i++ {
					c.wr.Array(3)
					c.wr.Arg("SET")
					c.wr.Arg(keys[i])
					c.wr.ArgUint(valueOf(uint32(i), preloadTag))
				}
				if err := c.flush(); err != nil {
					errs <- err
					return
				}
				for i := 0; i < n; i++ {
					if err := c.rd.ReadReply(&rep); err != nil {
						errs <- err
						return
					}
					if rep.Kind != proto.KindSimple {
						errs <- fmt.Errorf("bench: preload: unexpected reply %q %s", rep.Kind, rep.Str)
						return
					}
				}
			}
			errs <- nil
		}(ci, c)
	}
	var first error
	for range conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- the system under test, spawned ----

// wireSUT is a freshly spawned server (plus replica) with its
// connections open and every key preloaded. The connections are opened
// once and never closed before teardown: see README "Known defects".
type wireSUT struct {
	primary, replica *proc
	conns            []*wireConn // preload connections; the first w.conns carry the measured load
	ctl, rctl        *wireConn   // control connections to primary and replica
	dir              string
}

func (s *wireSUT) pids() []int {
	pids := []int{s.primary.cmd.Process.Pid}
	if s.replica != nil {
		pids = append(pids, s.replica.cmd.Process.Pid)
	}
	return pids
}

// alive reports whether every process of the SUT is still running.
func (s *wireSUT) alive() bool {
	return s.primary.alive() && (s.replica == nil || s.replica.alive())
}

func (s *wireSUT) stop() {
	for _, c := range s.conns {
		c.close()
	}
	s.ctl.close()
	s.rctl.close()
	s.primary.stop()
	s.replica.stop()
	os.RemoveAll(s.dir)
}

// startWire spawns the workload's server topology over fresh data
// directories, connects, preloads every key and (with a replica) waits
// until the replica holds them all. Its duration is one setup_s sample.
func startWire(w *workload, bin, dataRoot string, keys []string) (s *wireSUT, err error) {
	s = &wireSUT{}
	defer func() {
		if err != nil {
			s.stop()
			s = nil
		}
	}()
	if s.dir, err = os.MkdirTemp(dataRoot, w.name+"-"); err != nil {
		return s, err
	}
	args := []string{"-data-dir", filepath.Join(s.dir, "primary"), "-fsync", w.fsync}
	if w.replica {
		args = append(args, "-repl-listen", "127.0.0.1:0")
	}
	if s.primary, err = startProc(bin, args...); err != nil {
		return s, err
	}
	if w.replica {
		s.replica, err = startProc(bin, "-data-dir", filepath.Join(s.dir, "replica"), "-fsync", w.fsync,
			"-replica-of", s.primary.replAddr)
		if err != nil {
			return s, err
		}
		if s.rctl, err = dialWire(s.replica.addr); err != nil {
			return s, err
		}
	}
	if s.ctl, err = dialWire(s.primary.addr); err != nil {
		return s, err
	}
	if pong, err := s.ctl.ctl("PING"); err != nil || pong != "PONG" {
		return s, fmt.Errorf("bench: PING: %q %v", pong, err)
	}
	for i := 0; i < w.preloadConns; i++ {
		c, err := dialWire(s.primary.addr)
		if err != nil {
			return s, err
		}
		s.conns = append(s.conns, c)
	}
	if err = preloadWire(s.conns, keys); err != nil {
		return s, err
	}
	if w.replica {
		if _, err = s.catchUp(); err != nil {
			return s, err
		}
	}
	return s, nil
}

// catchUp blocks until the replica has applied everything the primary
// has acknowledged so far, and reports how long that took.
func (s *wireSUT) catchUp() (time.Duration, error) {
	t0 := time.Now()
	pos, err := s.ctl.ctl("REPLPOS")
	if err != nil {
		return 0, err
	}
	// WAITOFF caps its own wait, so poll it up to the I/O deadline.
	deadline := t0.Add(ioTimeout)
	for {
		_, err := s.rctl.ctl("WAITOFF", pos, "1000")
		if err == nil {
			return time.Since(t0), nil
		}
		if !strings.Contains(err.Error(), "WAITTIMEOUT") || time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: replica catch-up: %w", err)
		}
	}
}
