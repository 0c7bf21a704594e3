// The shipping frontier. Replication tails the same file the syncer
// writes, so the log exposes exactly two things beyond the file itself:
// a consistent snapshot of how far the file reaches (Cursor) and a way
// to learn that the frontier moved without polling (Subscribe). Both
// are fed by the syncer goroutine once per group-commit batch — the hot
// append path is untouched, which is how replication stays off the
// map's 0-alloc steady state.
package wal

// Cursor is a consistent snapshot of the log's written frontier: every
// byte of the current generation's file below Off is a whole record
// that a reader of the file will see. Off includes the LogHeaderSize
// header; Recs, Bytes and Batch are monotonic across rotations (process
// lifetime).
type Cursor struct {
	Gen   uint64
	Off   int64
	Recs  uint64 // records written since Open
	Bytes uint64 // record bytes written since Open (headers excluded)
	Batch uint64 // group-commit batches published since Open
}

// Sub is one frontier subscription. C carries the latest frontier with
// latest-wins coalescing: the syncer never blocks on a slow or absent
// receiver, and a receiver that keeps up sees exactly one value per
// group-commit batch.
type Sub struct {
	C chan Cursor
}

// Subscribe registers a frontier subscription. Unsubscribe it when done;
// subscriptions on a closed log simply never fire again.
func (l *Log) Subscribe() *Sub {
	s := &Sub{C: make(chan Cursor, 1)}
	l.curMu.Lock()
	l.subs = append(l.subs, s)
	l.curMu.Unlock()
	return s
}

// Unsubscribe removes s. Its channel is left open (a pending value stays
// readable); it just stops receiving.
func (l *Log) Unsubscribe(s *Sub) {
	l.curMu.Lock()
	for i, x := range l.subs {
		if x == s {
			l.subs[i] = l.subs[len(l.subs)-1]
			l.subs = l.subs[:len(l.subs)-1]
			break
		}
	}
	l.curMu.Unlock()
}

// Cursor copies the current frontier into c.
func (l *Log) Cursor(c *Cursor) {
	l.curMu.Lock()
	*c = l.cur
	l.curMu.Unlock()
}

// Seq returns the number of records appended so far — the acknowledged
// write position, ahead of the written frontier by whatever sits in the
// in-memory buffer. This is the position REPLPOS hands to
// read-your-writes clients: once a replica has applied Seq records, it
// holds every write acknowledged before the call.
func (l *Log) Seq() uint64 { return l.seq.Load() }

// LogName returns the file name of generation gen's log — the file a
// replication sender reads at a cursor's offset.
func LogName(gen uint64) string { return logName(gen) }

// LogHeaderSize is the fixed header every log file starts with; a fresh
// generation's cursor offset equals it.
const LogHeaderSize = logHeaderSize

// advanceCursor publishes one group-commit batch: n bytes holding recs
// records appended to the file. Called only by the syncer.
func (l *Log) advanceCursor(n int64, recs int) {
	l.curMu.Lock()
	l.cur.Off += n
	l.cur.Recs += uint64(recs)
	l.cur.Bytes += uint64(n)
	l.cur.Batch++
	l.notifyLocked()
	l.curMu.Unlock()
}

// rotateCursor publishes a generation switch. Called only by the syncer.
func (l *Log) rotateCursor(gen uint64) {
	l.curMu.Lock()
	l.cur.Gen = gen
	l.cur.Off = logHeaderSize
	l.cur.Batch++
	l.notifyLocked()
	l.curMu.Unlock()
}

// notifyLocked fans the current frontier out to every subscription,
// never blocking: a full channel is drained and refilled so the pending
// value is always the newest.
func (l *Log) notifyLocked() {
	for _, s := range l.subs {
		for {
			select {
			case s.C <- l.cur:
			default:
				select {
				case <-s.C:
					continue
				default:
				}
			}
			break
		}
	}
}
