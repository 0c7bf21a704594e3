// Package repl implements asynchronous WAL-shipping replication for
// spectm.Map: a primary streams its committed write-ahead-log records
// to any number of read-only replicas, trading strict single-node
// consistency for cheap read scaling — the paper's
// generality-for-performance move applied one level up the stack.
//
// # Roles
//
// A Source serves the primary side on its own listener (the data plane
// is untouched): each accepted connection is one replica link. A
// Replica dials a Source, bootstraps (full snapshot or cursor resume),
// then applies the record stream through the map's idempotent apply
// path, acknowledging progress and persisting its cursor so a restart
// resumes instead of re-syncing.
//
// # Stream protocol
//
// Both directions use the internal/proto command framing (arrays of
// bulk strings); neither side sends replies. The replica speaks first:
//
//	SYNC   [epoch]            full bootstrap requested
//	PSYNC  gen off [epoch]    resume from a persisted cursor
//	ACK    recs bytes         cumulative applied, stream-relative
//
// The optional trailing epoch is the replica's cluster epoch (0 when
// absent); a primary whose own epoch is lower refuses the link — it has
// been superseded by a promotion it did not see (see "Fencing" below).
//
// The primary answers with exactly one of
//
//	FULL   gen recs bytes off [epoch]   snapshot bootstrap begins;
//	                                    (recs, bytes) is the absolute
//	                                    base position of (gen, off)
//	CONT   gen recs bytes off [epoch]   resume accepted at the echoed
//	                                    cursor, base as above
//
// and then streams
//
//	SNAP    payload           snapshot chunk (FULL only)
//	SNAPEND                   snapshot complete, tailing begins
//	BATCH   gen off payload   contiguous log-file bytes at byte offset
//	                          off; frames need not end on record
//	                          boundaries, the replica reassembles
//	ROTATE  gen               generation switch, offset reset
//	PING    recs bytes        idle heartbeat with the primary's current
//	                          absolute position
//
// A cursor is a plain (gen, off): a generation of the primary's log and
// a byte offset into its one file. The file layout stays inside
// internal/wal.
//
// # What is guaranteed, and what is traded away
//
// Replication is asynchronous: a write is acknowledged by the primary
// before any replica has seen it. A replica applies the log's records
// in primary log order, so at every record boundary its state is the
// fold of a prefix of the primary's whole log (prefix consistency),
// converging to the primary when writes pause. A SWAP2 record is still
// applied as two assignments, so a concurrent reader on the replica can
// observe it half-applied. Reads on one replica connection are
// monotonic. Read-your-writes (without the WAITOFF gate) and
// synchronous durability on the replica quorum are deliberately not
// offered — see DESIGN.md "Replication".
//
// # Fencing
//
// Failover introduces a cluster epoch: every promotion bumps it, the
// bump is recorded in the promoted node's WAL (wal.OpEpoch) and carried
// by the handshake in both directions. Three rules keep a demoted or
// partitioned-away primary from splitting the brain:
//
//  1. A Source that receives a hello with a higher epoch refuses the
//     link and reports itself stale (Server demotes to read-only).
//  2. A Replica that receives FULL/CONT with an epoch below its own
//     rejects the stream — a stale primary cannot feed it.
//  3. A PSYNC resume is honored only at the Source's exact epoch; a
//     cursor taken under an older epoch falls back to a full sync, so
//     divergent suffixes written by a deposed primary are discarded
//     rather than spliced.
//
// Replicas adopt higher epochs from the handshake and from OpEpoch
// records in the stream, persisting them to their own WAL.
package repl

import "time"

// Wire message names. Replica → primary: SYNC, PSYNC, ACK. Primary →
// replica: FULL, CONT, SNAP, SNAPEND, BATCH, ROTATE, PING.
const (
	cmdSync    = "SYNC"
	cmdPSync   = "PSYNC"
	cmdAck     = "ACK"
	cmdFull    = "FULL"
	cmdCont    = "CONT"
	cmdSnap    = "SNAP"
	cmdSnapEnd = "SNAPEND"
	cmdBatch   = "BATCH"
	cmdRotate  = "ROTATE"
	cmdPing    = "PING"
)

// Limits and defaults.
const (
	// maxBatch bounds one BATCH payload (whole records only). It must
	// stay at or below proto.MaxBulk.
	maxBatch = 256 << 10

	// snapChunk is the SNAP payload size a full sync streams in.
	snapChunk = 256 << 10

	defaultHeartbeat  = time.Second
	defaultAckEvery   = 64 << 10         // bytes applied between ACKs
	defaultCheckpoint = 1 << 20          // bytes applied between cursor checkpoints
	writeTimeout      = 30 * time.Second // per flush toward a replica
	handshakeTimeout  = 10 * time.Second
)
