// The "repl" series: what WAL-shipping replication costs and buys. Two
// sweeps over an in-process primary + replica topology on loopback
// sockets:
//
//	repl/primary/write     write-heavy primary throughput as replicas
//	                       attach (threads column = replica count) —
//	                       the tax of feeding N streams off the WAL
//	repl/read/eventual     GET throughput against one of two replicas,
//	                       ungated (threads column = connections)
//	repl/read/ryw          the same reads behind the REPLPOS/WAITOFF
//	                       read-your-writes gate — the consistency tax
//
// Not a figure of the paper: this is the ROADMAP's read-scaling axis.
package figures

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spectm/internal/harness"
	"spectm/internal/server"
	"spectm/internal/wal"
)

// replWriteConns is the fixed client-connection count of the write
// sweep (the swept variable there is the replica count).
const replWriteConns = 4

// replMaxReplicas is how many replicas the write sweep attaches.
const replMaxReplicas = 2

// replStack is one primary + N replicas, all in-process.
type replStack struct {
	primary  *server.Server
	replicas []*server.Server
	dirs     []string
}

func (st *replStack) close() {
	for _, r := range st.replicas {
		r.Shutdown()
	}
	if st.primary != nil {
		st.primary.Shutdown()
	}
	for _, d := range st.dirs {
		os.RemoveAll(d)
	}
}

func (st *replStack) tempDir() (string, error) {
	d, err := os.MkdirTemp("", "spectm-repl-*")
	if err != nil {
		return "", err
	}
	st.dirs = append(st.dirs, d)
	return d, nil
}

// start brings up the primary and nReplicas replicas and waits for the
// replicas to attach.
func (st *replStack) start(nReplicas, maxConns int) error {
	dir, err := st.tempDir()
	if err != nil {
		return err
	}
	p, err := server.New(
		server.WithMaxConns(maxConns),
		server.WithPersistence(dir, wal.EveryN(64)),
		server.WithTopology(server.Topology{ReplListen: "127.0.0.1:0"}))
	if err != nil {
		return err
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	go p.Serve()
	st.primary = p

	for i := 0; i < nReplicas; i++ {
		rdir, err := st.tempDir()
		if err != nil {
			return err
		}
		r, err := server.New(
			server.WithMaxConns(maxConns),
			server.WithPersistence(rdir, wal.EveryN(64)),
			server.WithTopology(server.Topology{Primary: p.ReplAddr().String()}))
		if err != nil {
			return err
		}
		if err := r.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		go r.Serve()
		st.replicas = append(st.replicas, r)
	}
	// Attach barrier: every replica must reach the primary's current
	// position before the measurement starts.
	for _, r := range st.replicas {
		if err := harness.ReplWait(st.primary.Addr().String(), r.Addr().String(), 30*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// FigRepl measures primary write throughput vs replica count, then
// replica read throughput with and without the read-your-writes gate.
func FigRepl(o Options) error {
	o = o.withDefaults()
	keys := int(o.KeyRange)
	maxConns := replWriteConns + 2
	for _, c := range o.Threads {
		if c > maxConns {
			maxConns = c + 2
		}
	}

	fmt.Fprintf(o.Out, "\n== repl: WAL-shipping replication, %d keys ==\n", keys)
	var csv *os.File
	if o.CSVDir != "" {
		f, err := os.Create(filepath.Join(o.CSVDir, "repl.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		csv = f
		fmt.Fprintln(csv, "series,x,ops_per_sec,allocs_per_op,errors")
	}

	// Sweep 1: primary write throughput as replicas attach.
	fmt.Fprintf(o.Out, "%-10s %14s %12s %10s   (write mix, %d conns)\n",
		"replicas", "ops/s", "allocs/op", "errors", replWriteConns)
	for n := 0; n <= replMaxReplicas; n++ {
		st := &replStack{}
		if err := st.start(n, maxConns); err != nil {
			st.close()
			return err
		}
		res, err := harness.RunRepl(harness.ReplWorkload{
			PrimaryAddr: st.primary.Addr().String(),
			Mode:        "write",
			Conns:       replWriteConns, Pipeline: 16, Keys: keys,
			Dist: "zipf", Duration: o.Duration, Seed: o.Seed,
		})
		st.close()
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-10d %14.0f %12.3f %10d\n", n, res.OpsPerSec, res.AllocsPerOp, res.Errors)
		o.record("repl/primary/write", n, res.OpsPerSec, res.AllocsPerOp)
		if csv != nil {
			fmt.Fprintf(csv, "primary-write,%d,%.0f,%.4f,%d\n", n, res.OpsPerSec, res.AllocsPerOp, res.Errors)
		}
	}

	// Sweep 2: replica read throughput, eventual vs read-your-writes,
	// over the connection counts.
	st := &replStack{}
	if err := st.start(2, maxConns); err != nil {
		st.close()
		return err
	}
	defer st.close()
	primaryAddr := st.primary.Addr().String()
	replicaAddr := st.replicas[0].Addr().String()

	// Preload through the primary, then barrier the replica.
	if _, err := harness.RunNet(harness.NetWorkload{
		Addr: primaryAddr, Conns: 1, Pipeline: 16, Keys: keys,
		GetPct: 100, Duration: 50 * time.Millisecond, Seed: o.Seed,
	}); err != nil {
		return err
	}
	if err := harness.ReplWait(primaryAddr, replicaAddr, 60*time.Second); err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "%-8s %-10s %14s %12s %10s   (replica reads, 2 replicas)\n",
		"conns", "gate", "ops/s", "allocs/op", "errors")
	for _, conns := range o.Threads {
		for _, mode := range []struct{ name, mode string }{
			{"eventual", "read"},
			{"ryw", "read-ryw"},
		} {
			res, err := harness.RunRepl(harness.ReplWorkload{
				PrimaryAddr: primaryAddr, ReplicaAddr: replicaAddr,
				Mode:  mode.mode,
				Conns: conns, Pipeline: 16, Keys: keys,
				Dist: "zipf", Duration: o.Duration, Seed: o.Seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(o.Out, "%-8d %-10s %14.0f %12.3f %10d\n",
				conns, mode.name, res.OpsPerSec, res.AllocsPerOp, res.Errors)
			o.record("repl/read/"+mode.name, conns, res.OpsPerSec, res.AllocsPerOp)
			if csv != nil {
				fmt.Fprintf(csv, "read-%s,%d,%.0f,%.4f,%d\n",
					mode.name, conns, res.OpsPerSec, res.AllocsPerOp, res.Errors)
			}
		}
	}
	return nil
}
