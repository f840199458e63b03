package main

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"time"

	"skipqueue/internal/lease"
	"skipqueue/internal/server"
	"skipqueue/internal/wal"
)

// backend is the queue surface every layer hands to the next:
// server.Backend, wal.Backend and lease.Backend are all this shape.
type backend interface {
	Push(priority int64, value []byte)
	Pop() (priority int64, value []byte, ok bool)
	Peek() (priority int64, value []byte, ok bool)
	Len() int
}

// coreTimer decorates the root adapter (skipqueue.PQ over internal/core).
type coreTimer struct {
	inner backend
	t     *tracer
}

func (c *coreTimer) Push(priority int64, value []byte) {
	s := c.t.begin()
	c.inner.Push(priority, value)
	c.t.end(layerCore, opPush, s, value)
}

func (c *coreTimer) Pop() (int64, []byte, bool) {
	s := c.t.begin()
	p, v, ok := c.inner.Pop()
	c.t.end(layerCore, opPop, s, v)
	return p, v, ok
}

func (c *coreTimer) Peek() (int64, []byte, bool) { return c.inner.Peek() }
func (c *coreTimer) Len() int                    { return c.inner.Len() }

// walTimer decorates wal.Queue. It must forward lease.Leaser and
// server.Durability as well as the backend methods: lease.New and the
// server find those by type assertion, and a decorator that hid them
// would silently make leases non-durable.
type walTimer struct {
	q *wal.Queue
	t *tracer
}

var (
	_ lease.Leaser      = (*walTimer)(nil)
	_ server.Durability = (*walTimer)(nil)
	_ server.Backend    = (*coreTimer)(nil)
	_ server.Backend    = (*leaseTimer)(nil)
)

func (w *walTimer) Push(priority int64, value []byte) {
	s := w.t.begin()
	w.q.Push(priority, value)
	w.t.end(layerWAL, opPush, s, value)
}

func (w *walTimer) Pop() (int64, []byte, bool) {
	s := w.t.begin()
	p, v, ok := w.q.Pop()
	w.t.end(layerWAL, opPop, s, v)
	return p, v, ok
}

func (w *walTimer) Peek() (int64, []byte, bool) { return w.q.Peek() }
func (w *walTimer) Len() int                    { return w.q.Len() }

func (w *walTimer) LeaseMin() (uint64, int64, []byte, bool) {
	s := w.t.begin()
	tok, p, v, ok := w.q.LeaseMin()
	w.t.end(layerWAL, opLeaseMin, s, v)
	return tok, p, v, ok
}

func (w *walTimer) Ack(token uint64) {
	s := w.t.begin()
	w.q.Ack(token)
	w.t.end(layerWAL, opAck, s, nil)
}

func (w *walTimer) Requeue(token uint64, prio int64, value []byte) {
	s := w.t.begin()
	w.q.Requeue(token, prio, value)
	w.t.end(layerWAL, opRequeue, s, value)
}

func (w *walTimer) Rewrite(token uint64, prio int64, value []byte) {
	s := w.t.begin()
	w.q.Rewrite(token, prio, value)
	w.t.end(layerWAL, opRewrite, s, value)
}

func (w *walTimer) Commit() error {
	s := w.t.begin()
	err := w.q.Commit()
	w.t.end(layerWAL, opCommit, s, nil)
	return err
}

func (w *walTimer) Sync() error {
	s := w.t.begin()
	err := w.q.Sync()
	w.t.end(layerWAL, opSync, s, nil)
	return err
}

// leaseTimer decorates the lease table as the server's Backend. Lease
// opcodes reach the table through server.Config.Lease, not this surface,
// so only plain pushes and pops are timed here.
type leaseTimer struct {
	tbl *lease.Table
	t   *tracer
}

func (l *leaseTimer) Push(priority int64, value []byte) {
	s := l.t.begin()
	l.tbl.Push(priority, value)
	l.t.end(layerLease, opPush, s, value)
}

func (l *leaseTimer) Pop() (int64, []byte, bool) {
	s := l.t.begin()
	p, v, ok := l.tbl.Pop()
	l.t.end(layerLease, opPop, s, v)
	return p, v, ok
}

func (l *leaseTimer) Peek() (int64, []byte, bool) { return l.tbl.Peek() }
func (l *leaseTimer) Len() int                    { return l.tbl.Len() }

// connStats are the server-side socket counters the listener wrapper keeps.
type connStats struct {
	reads, writes     atomic.Uint64
	bytesIn, bytesOut atomic.Uint64
	writeNs, framesIn atomic.Uint64
}

// countingListener wraps the server's listener so every accepted
// connection counts its reads, writes and incoming frames. The server
// writes each response batch as one net.Buffers; through this wrapper the
// buffers go out one Write each instead of one writev, the same syscall
// count while a batch fits one buffer, which holds for 16-byte values.
type countingListener struct {
	net.Listener
	st *connStats
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, st: l.st}, nil
}

type countingConn struct {
	net.Conn
	st *connStats
	// frame scanner state: bytes left in the current frame body, and the
	// partially read length prefix.
	rem  uint64
	hdr  [4]byte
	hdrN int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.bytesIn.Add(uint64(n))
	c.st.framesIn.Add(c.scan(p[:n]))
	return n, err
}

// scan walks the wire framing (a 4-byte big-endian length prefix, then
// that many bytes) across read boundaries and counts the prefixes.
func (c *countingConn) scan(b []byte) (frames uint64) {
	for len(b) > 0 {
		if c.rem > 0 {
			k := min(uint64(len(b)), c.rem)
			c.rem -= k
			b = b[k:]
			continue
		}
		k := copy(c.hdr[c.hdrN:], b)
		c.hdrN += k
		b = b[k:]
		if c.hdrN == 4 {
			c.rem = uint64(binary.BigEndian.Uint32(c.hdr[:]))
			c.hdrN = 0
			frames++
		}
	}
	return frames
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(uint64(time.Since(t0)))
	c.st.writes.Add(1)
	c.st.bytesOut.Add(uint64(n))
	return n, err
}
