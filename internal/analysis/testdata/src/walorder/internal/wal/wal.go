// Package wal holds fixtures for walorder rule 2: within a function
// that writes the log file and publishes the frontier, the publication
// must come after the write and the durable watermark after the fsync.
// The import path ends in internal/wal to land in the analyzer's scope.
package wal

import "os"

// File mirrors the real package's file seam: the syncer writes through
// it, not through *os.File directly.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
}

type Log struct {
	f *os.File
	w File
}

func (l *Log) Put(k uint64)    { _ = k }
func (l *Log) advanceCursor()  {}
func (l *Log) rotateCursor()   {}
func (l *Log) notifyLocked()   {}
func (l *Log) advanceDurable() {}

// ---- legal ordering ----

func (l *Log) goodWrite(rec []byte) error {
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	l.advanceCursor()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.advanceDurable()
	return nil
}

// ---- violations ----

func (l *Log) badPublish(rec []byte) error {
	l.advanceCursor() // want "frontier published before the log file write"
	_, err := l.f.Write(rec)
	return err
}

func (l *Log) badPublishThroughFile(rec []byte) error {
	l.advanceCursor() // want "frontier published before the log file write"
	_, err := l.w.Write(rec)
	return err
}

func (l *Log) badDurableThroughFile(rec []byte) error {
	if _, err := l.w.Write(rec); err != nil {
		return err
	}
	l.advanceCursor()
	l.advanceDurable() // want "durable watermark advanced before fsync"
	return l.w.Sync()
}

func (l *Log) goodWriteThroughFile(rec []byte) error {
	if _, err := l.w.Write(rec); err != nil {
		return err
	}
	l.advanceCursor()
	if err := l.w.Sync(); err != nil {
		return err
	}
	l.advanceDurable()
	return nil
}

func (l *Log) badDurable(rec []byte) error {
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	l.advanceDurable() // want "durable watermark advanced before fsync"
	return l.f.Sync()
}
