package main

import (
	"strings"
	"testing"

	"skipqueue/internal/wal"
)

// deliverAll issues n elements on stream 0 and sees each of them once.
func deliverAll(l *ledger, n int) [][]byte {
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = encodeValue(l.issue(0), int64(i))
		l.see(vals[i], int64(i))
	}
	return vals
}

func TestLedgerAcceptsExactlyOnce(t *testing.T) {
	l := newLedger(2)
	deliverAll(l, 1000)
	if err := l.verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerRejects(t *testing.T) {
	cases := []struct {
		name, want string
		inject     func(l *ledger, vals [][]byte)
	}{
		{"loss", "1 lost", func(l *ledger, _ [][]byte) { l.issue(1) }},
		{"duplicate", "1 duplicated", func(l *ledger, vals [][]byte) { l.see(vals[7], 7) }},
		{"phantom", "1 phantom", func(l *ledger, _ [][]byte) { l.see(encodeValue(elementID(1, 0), 3), 3) }},
		{"unknown stream", "1 phantom", func(l *ledger, _ [][]byte) { l.see(encodeValue(elementID(9, 0), 3), 3) }},
		{"wrong priority", "1 corrupt", func(l *ledger, _ [][]byte) {
			id := l.issue(1)
			l.see(encodeValue(id, 5), 6)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newLedger(2)
			c.inject(l, deliverAll(l, 100))
			err := l.verify()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("verify() = %v, want an error reporting %q", err, c.want)
			}
		})
	}
}

func TestLedgerUncertainInsertMayBeMissing(t *testing.T) {
	l := newLedger(1)
	deliverAll(l, 10)
	l.markUncertain(l.issue(0))
	if err := l.verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainCheck(t *testing.T) {
	var ok drainCheck
	for _, p := range []int64{-3, 0, 0, 5, 9} {
		ok.add(p)
	}
	if err := ok.err(); err != nil {
		t.Fatal(err)
	}
	var bad drainCheck
	for _, p := range []int64{1, 4, 2, 8} {
		bad.add(p)
	}
	if err := bad.err(); err == nil || !strings.Contains(err.Error(), "priority 2 after 4") {
		t.Fatalf("out-of-order drain accepted: %v", err)
	}
}

// durableFixture writes n elements through a WAL in dir, acks the first
// acked of them, and closes it. It returns the ledger that saw those acks.
func durableFixture(t *testing.T, dir string, n, acked int) *ledger {
	t.Helper()
	l := newLedger(1)
	q, _, err := wal.OpenQueue(wal.Config{Dir: dir, Mode: wal.ModeSync}, newPQ())
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		q.Push(int64(i), encodeValue(l.issue(0), int64(i)))
	}
	for range acked {
		tok, p, v, ok := q.LeaseMin()
		if !ok {
			t.Fatal("queue ran dry")
		}
		q.Ack(tok)
		l.see(v, p)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRecoverWALAcceptsUnackedSet(t *testing.T) {
	dir := t.TempDir()
	l := durableFixture(t, dir, 50, 20)
	q, _, err := recoverWAL(dir, l)
	if err != nil {
		t.Fatal(err)
	}
	if err := drain(q, l); err != nil {
		t.Fatal(err)
	}
	if err := l.verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWALRejects(t *testing.T) {
	t.Run("loss", func(t *testing.T) {
		dir := t.TempDir()
		l := durableFixture(t, dir, 50, 20)
		l.issue(0) // unacked, but never written
		if _, _, err := recoverWAL(dir, l); err == nil {
			t.Fatal("a WAL missing an unacked element was accepted")
		}
	})
	t.Run("resurrected ack", func(t *testing.T) {
		dir := t.TempDir()
		l := durableFixture(t, dir, 50, 20)
		l.see(encodeValue(elementID(0, 30), 30), 30) // acked, yet still in the WAL
		if _, _, err := recoverWAL(dir, l); err == nil {
			t.Fatal("a WAL holding an acked element was accepted")
		}
	})
}

func TestRecoverWALSwappedElementFailsDrain(t *testing.T) {
	dir := t.TempDir()
	l := durableFixture(t, dir, 50, 20)
	l.issue(0)                                   // unacked, never written: a loss
	l.see(encodeValue(elementID(0, 30), 30), 30) // acked, still in the WAL: a duplicate
	q, _, err := recoverWAL(dir, l)
	if err != nil {
		t.Fatal(err) // the counts agree; only the drain can tell
	}
	drain(q, l)
	if err := l.verify(); err == nil || !strings.Contains(err.Error(), "1 lost, 1 duplicated") {
		t.Fatalf("verify() = %v, want one loss and one duplicate", err)
	}
}
