package wal

import (
	"testing"
	"time"
)

// TestSubscribeOncePerBatch pins the notification contract: under the
// Always policy every append is its own group-commit batch, and a
// subscriber that keeps up receives exactly one mark per batch, with
// strictly increasing batch numbers and running record totals.
func TestSubscribeOncePerBatch(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: Always()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sub := l.Subscribe()
	defer l.Unsubscribe(sub)

	const n = 50
	var lastBatch, lastRecs uint64
	for i := 0; i < n; i++ {
		l.Put("key", uint64(i)<<2)
		// The append returned, so the group commit covering it has run
		// and published; its mark must be waiting.
		select {
		case m := <-sub.C:
			if m.Batch <= lastBatch {
				t.Fatalf("append %d: batch %d not above previous %d", i, m.Batch, lastBatch)
			}
			if m.Recs != lastRecs+1 {
				t.Fatalf("append %d: mark says %d records, want %d", i, m.Recs, lastRecs+1)
			}
			if m.Bytes == 0 || m.Gen != l.Gen() {
				t.Fatalf("append %d: implausible mark %+v", i, m)
			}
			lastBatch, lastRecs = m.Batch, m.Recs
		case <-time.After(5 * time.Second):
			t.Fatalf("append %d: no mark after a completed group commit", i)
		}
		// Exactly once: no second mark for the same batch.
		select {
		case m := <-sub.C:
			t.Fatalf("append %d: spurious extra mark %+v", i, m)
		default:
		}
	}

	var c Cursor
	l.Cursor(&c)
	if c.Recs != n {
		t.Fatalf("cursor says %d records, want %d", c.Recs, n)
	}
	if c.Off < LogHeaderSize || uint64(c.Off-LogHeaderSize) != c.Bytes {
		t.Fatalf("cursor offset %d covers %d record bytes, totals say %d",
			c.Off, c.Off-LogHeaderSize, c.Bytes)
	}
}

// TestSubscribeNeverBlocksSyncer leaves a subscription undrained: marks
// coalesce latest-wins and appends keep completing, so the syncer never
// waits on a slow receiver.
func TestSubscribeNeverBlocksSyncer(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: Always()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sub := l.Subscribe() // never drained until the end
	defer l.Unsubscribe(sub)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			l.Put("k", uint64(i)<<2)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("appends stalled behind an undrained subscription")
	}

	// The one pending mark is the newest frontier.
	select {
	case m := <-sub.C:
		if m.Recs != 500 {
			t.Fatalf("coalesced mark says %d records, want 500", m.Recs)
		}
	default:
		t.Fatal("no mark pending after 500 batches")
	}
}

// TestSubscribeRotation: a rotation publishes the new generation with
// reset offsets while the monotonic totals carry over.
func TestSubscribeRotation(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: EveryN(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Put("k", uint64(i)<<2)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	var before Cursor
	l.Cursor(&before)
	if before.Recs != 10 {
		t.Fatalf("pre-rotation cursor says %d records, want 10", before.Recs)
	}

	sub := l.Subscribe()
	defer l.Unsubscribe(sub)
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.C:
		if m.Gen != gen {
			t.Fatalf("mark generation %d, rotation returned %d", m.Gen, gen)
		}
		if m.Recs != before.Recs || m.Bytes != before.Bytes {
			t.Fatalf("rotation changed totals: %+v vs %+v", m, before)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no mark after rotation")
	}
	var after Cursor
	l.Cursor(&after)
	if after.Gen != gen {
		t.Fatalf("cursor generation %d, want %d", after.Gen, gen)
	}
	if after.Off != LogHeaderSize {
		t.Fatalf("offset %d after rotation, want %d", after.Off, LogHeaderSize)
	}
	if l.Seq() != 10 {
		t.Fatalf("Seq = %d, want 10", l.Seq())
	}
}
