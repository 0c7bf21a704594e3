// Command spectm-server serves a sharded transactional key-value map
// (spectm.Map) over TCP with a minimal RESP-like pipelined protocol.
// Every wire command executes as a statically sized short transaction;
// see the package README for the protocol grammar and internal/server
// for the command → arity table.
//
// Usage:
//
//	spectm-server -addr 127.0.0.1:6399 -maxconns 256
//	spectm-server -data-dir /var/lib/spectm -fsync interval=100ms
//	spectm-server -data-dir /var/lib/spectm -repl-listen 127.0.0.1:6400
//	spectm-server -addr 127.0.0.1:6401 -replica-of 127.0.0.1:6400
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"spectm/internal/server"
	"spectm/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:6399", "listen address")
		maxConns   = flag.Int("maxconns", 256, "maximum concurrent connections")
		shards     = flag.Int("shards", 0, "map shard count (0 = default: ≥ GOMAXPROCS)")
		buckets    = flag.Int("buckets", 0, "initial buckets per shard (0 = default 64)")
		dataDir    = flag.String("data-dir", "", "persistence directory: write-ahead log + snapshots (empty = in-memory only)")
		fsync      = flag.String("fsync", "interval=1s", "WAL fsync policy: always, every=N or interval=DURATION")
		replListen = flag.String("repl-listen", "", "serve WAL-shipping replication to replicas on this address (requires -data-dir; on a replica, the listener a future PROMOTE will serve)")
		replicaOf  = flag.String("replica-of", "", "run as a read-only replica of the primary whose -repl-listen is at host:port")
		epoch      = flag.Uint64("epoch", 0, "initial cluster epoch (a higher persisted epoch still wins)")
	)
	flag.Parse()

	opts := []server.Option{
		server.WithMaxConns(*maxConns),
		server.WithShards(*shards),
		server.WithInitialBuckets(*buckets),
	}
	if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spectm-server: %v\n", err)
			os.Exit(2)
		}
		opts = append(opts, server.WithPersistence(*dataDir, policy))
	}
	opts = append(opts, server.WithTopology(server.Topology{
		Epoch:      *epoch,
		Primary:    *replicaOf,
		ReplListen: *replListen,
	}))

	s, err := server.New(opts...)
	if err != nil {
		log.Fatalf("spectm-server: %v", err)
	}
	if err := s.Listen(*addr); err != nil {
		log.Fatalf("spectm-server: %v", err)
	}
	switch {
	case *replicaOf != "":
		log.Printf("spectm-server: replica of %s, listening on %s (read-only; maxconns=%d data-dir=%q)",
			*replicaOf, s.Addr(), *maxConns, *dataDir)
	case *dataDir != "":
		log.Printf("spectm-server: listening on %s (maxconns=%d data-dir=%s fsync=%s, %d keys recovered)",
			s.Addr(), *maxConns, *dataDir, *fsync, s.Map().Len())
	default:
		log.Printf("spectm-server: listening on %s (maxconns=%d)", s.Addr(), *maxConns)
	}
	if *replListen != "" {
		log.Printf("spectm-server: replication listener on %s", s.ReplAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-sig
		log.Printf("spectm-server: shutting down, draining connections")
		if err := s.Shutdown(); err != nil {
			log.Printf("spectm-server: shutdown: %v", err)
		}
		close(drained)
	}()

	if err := s.Serve(); err != server.ErrServerClosed {
		log.Fatalf("spectm-server: %v", err)
	}
	// Serve returns as soon as the listener closes; the drain — and the
	// WAL flush behind it — is still in flight. Exiting now would lose
	// acknowledged writes inside the fsync window.
	<-drained
	log.Printf("spectm-server: bye")
}
