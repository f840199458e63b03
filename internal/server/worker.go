// Worker sharding and apply combining: the server's second amortization
// layer.
//
// Each connection is assigned (round-robin at admit) to one of
// Config.Workers apply loops; the reader gathers its micro-batch — every
// frame already buffered, OpBatch frames decoded into their entries,
// insert values copied out of the read buffer — into a task. Hand-off is
// adaptive, the Calciu adaptation argument one layer up from the
// skiplist: when there is something to combine WITH — a WAL whose fsync
// group-commit amortizes across connections, a configured linger window,
// or tasks already queued on the worker — the reader submits the task and
// blocks until the worker signals completion. Otherwise combining could
// only add a synchronization round-trip, so the reader applies the task
// inline itself. Either way the reader performs the socket write, so one
// slow client never head-of-line blocks another connection's responses,
// and per-connection FIFO is free because a reader never has more than
// one task in flight.
//
// The worker, on each wakeup, drains every task queued by every
// connection it owns (optionally lingering Config.BatchLinger for more),
// applies the whole run against the backend, covers all of the run's
// mutations with ONE WAL Commit, and builds each task's response buffer.
package server

import (
	"encoding/binary"
	"net"
	"sort"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/wire"
)

// frameOp is one gathered request frame, decoded and detached from the
// connection read buffer: request payloads, single-op or batch entry, are
// owned copies, so the reader may keep reading while the worker applies.
type frameOp struct {
	kind    wire.Kind
	arg     int64
	data    []byte            // owned; request payload or bad-batch error text
	entries []wire.BatchEntry // OpBatch only; a window of task.entries, Data owned
	trace   uint64            // non-zero on traced frames
	bad     bool              // malformed batch payload: answered StatusErr, conn stays up
}

func (op *frameOp) traced() bool { return op.trace != 0 }

// task is one connection micro-batch. A reader owns exactly one task and
// reuses it: apply inline (or submit and wait on done), write the
// response, reset. The apply scratch lives here, not on the worker, so
// the inline path and the worker never share it.
type task struct {
	ops    []frameOp
	resp   respBuf
	traced []tracedReq
	nops   int   // operations gathered, batch entries included
	err    error // WAL commit failure: drop the conn without replying
	done   chan struct{}

	statuses []wire.BatchEntry // scratch: per-op statuses of one batch frame
	order    []int             // scratch: apply order of one batch frame

	// entries holds the decoded entries of every batch frame in ops. It is
	// reused across micro-batches: reset runs only once the previous
	// response is written.
	entries []wire.BatchEntry
}

func newTask() *task { return &task{done: make(chan struct{}, 1)} }

func (t *task) reset() {
	t.ops = t.ops[:0]
	t.resp.reset()
	t.traced = t.traced[:0]
	t.nops = 0
	t.err = nil
	t.entries = t.entries[:0]
}

// addFrame decodes one gathered request frame into the task. It owns the
// copy-out: f.Data aliases the connection read buffer, which the next
// wire.Read overwrites, so anything the backend or the worker will see
// after this call is copied here — once per data-carrying single op, once
// per batch frame that carries data. The copies are fresh memory, never
// reused: the backend keeps insert values as they are.
func (t *task) addFrame(f wire.Frame, maxOps int) {
	op := frameOp{kind: f.Kind, arg: f.Arg, trace: f.Trace}
	switch f.Kind {
	case wire.OpInsert, wire.OpPopLease, wire.OpExtend, wire.OpInsertDelay:
		// Data-carrying requests: the insert value, the pop-lease queue
		// selector, the extend TTL, the delay header + value.
		op.data = append([]byte(nil), f.Data...)
		t.nops++
	case wire.OpBatch:
		start := len(t.entries)
		entries, err := wire.DecodeBatchInto(t.entries, f)
		switch {
		case err != nil:
			op.bad = true
			op.data = []byte(err.Error())
			t.nops++
		case len(entries)-start > maxOps:
			op.bad = true
			op.data = []byte("server: batch exceeds the operation cap")
			t.nops++
		default:
			t.entries = entries
			op.entries = entries[start:len(entries):len(entries)]
			ownEntries(op.entries)
			t.nops += len(op.entries)
		}
	default:
		t.nops++
	}
	t.ops = append(t.ops, op)
}

// ownEntries moves one batch frame's entry payloads out of the read
// buffer into one slab sized to fit them. Only payloads are copied, not
// entry headers, and a batch of bare DeleteMins copies nothing.
func ownEntries(entries []wire.BatchEntry) {
	size := 0
	for _, e := range entries {
		size += len(e.Data)
	}
	var slab []byte
	if size > 0 {
		slab = make([]byte, 0, size)
	}
	for i := range entries {
		e := &entries[i]
		if len(e.Data) == 0 {
			e.Data = nil // an empty window would still pin the read buffer
			continue
		}
		slab = append(slab, e.Data...)
		e.Data = slab[len(slab)-len(e.Data) : len(slab) : len(slab)]
	}
}

// worker is one apply loop. Its tasks channel is closed by stopWorkers
// once every connection handler has exited.
type worker struct {
	s     *Server
	tasks chan *task
	run   []*task // scratch: the tasks drained this wakeup
}

func (w *worker) loop() {
	defer w.s.workerWG.Done()
	linger := w.s.cfg.BatchLinger
	for t := range w.tasks {
		w.run = append(w.run[:0], t)
		if linger > 0 {
			timer := time.NewTimer(linger)
			for timer != nil {
				select {
				case t2, ok := <-w.tasks:
					if !ok {
						timer.Stop()
						timer = nil
						break
					}
					w.run = append(w.run, t2)
				case <-timer.C:
					timer = nil
				}
			}
		}
		// Drain whatever else queued while we were combining: every task
		// already waiting joins this run and shares its WAL commit.
		for drained := false; !drained; {
			select {
			case t2, ok := <-w.tasks:
				if !ok {
					drained = true
					break
				}
				w.run = append(w.run, t2)
			default:
				drained = true
			}
		}
		w.applyRun(w.run)
		for i := range w.run {
			w.run[i] = nil // drop task refs; readers own them again
		}
	}
}

// applyRun executes one combined run: every op of every task, one WAL
// commit for all of them, one response buffer per task.
func (w *worker) applyRun(run []*task) {
	s := w.s
	fr := s.cfg.Flight
	var t0 int64
	if fr.Enabled() {
		nops := 0
		for _, t := range run {
			nops += t.nops
		}
		t0 = fr.Now()
		fr.RecordAt(t0, flight.KBatchAssemble, 0, int64(nops))
	}
	metered := s.obs.set.Enabled()
	mutated := false
	for _, t := range run {
		m := s.applyTask(t, metered)
		mutated = mutated || m
	}
	s.bobs.flushes.Inc()
	// Durable ACK: one Commit covers every mutation of the whole run —
	// group commit across every connection this worker drained. On a
	// commit failure no task answers: an un-ACKed operation is
	// indeterminate to the client, which is exactly what it is on disk.
	if mutated && s.cfg.WAL != nil {
		if err := s.cfg.WAL.Commit(); err != nil {
			for _, t := range run {
				t.err = err
			}
		}
	}
	if fr.Enabled() {
		now := fr.Now()
		fr.RecordAt(now, flight.KBatchApply, 0, now-t0)
	}
	for _, t := range run {
		t.done <- struct{}{}
	}
}

// applyInline is the reader's fast path: a run of one task, applied on
// the connection goroutine itself. Taken only when the worker has nothing
// to combine it with (no WAL, no linger, empty queue), where the hand-off
// round-trip would be pure overhead.
func (s *Server) applyInline(t *task) {
	s.applyTask(t, s.obs.set.Enabled())
	s.bobs.flushes.Inc()
}

// applyTask executes every gathered frame of one task against the
// backend, reporting whether any mutated.
func (s *Server) applyTask(t *task, metered bool) (mutated bool) {
	for i := range t.ops {
		m := s.applyFrame(t, &t.ops[i], metered)
		mutated = mutated || m
	}
	s.bobs.runOps.ObserveN(uint64(t.nops))
	return mutated
}

// applyFrame executes one gathered frame and appends its response frame
// to the task's response buffer, reporting whether the backend mutated.
// During a drain every operation is answered SHUTDOWN without touching
// the backend.
func (s *Server) applyFrame(t *task, op *frameOp, metered bool) (mutated bool) {
	resp := &t.resp
	s.obs.frames.Inc()
	if op.bad {
		s.obs.bad.Inc()
		resp.appendFrame(wire.StatusErr, 0, op.data)
		return false
	}
	if s.draining.Load() {
		s.obs.shutdownReplies.Inc()
		if op.kind == wire.OpBatch {
			t.statuses = t.statuses[:0]
			for range op.entries {
				t.statuses = append(t.statuses, wire.BatchEntry{Kind: wire.StatusShutdown})
			}
			resp.appendBatchFrame(t.statuses)
		} else {
			resp.appendFrame(wire.StatusShutdown, 0, nil)
		}
		return false
	}
	// A traced frame is timed even without metrics: its apply duration is
	// the span attribution's "structure time".
	timed := metered || (s.cfg.Flight.Enabled() && op.traced())
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if op.kind == wire.OpBatch {
		mutated = s.applyBatch(t, op)
	} else {
		st, arg, data, m := s.applyOp(op.kind, op.arg, op.data)
		mutated = m
		resp.appendFrame(st, arg, data)
	}
	if metered {
		s.obs.applyLat.Since(t0)
	}
	if s.cfg.Flight.Enabled() && op.traced() {
		s.cfg.Flight.Record(flight.KServerApply, op.trace, int64(time.Since(t0)))
	}
	return mutated
}

// applyBatch executes one OpBatch frame: inserts first, then the rest,
// each class in arrival order — within a batch the client has, by
// batching, declared the operations concurrent, so the server picks the
// order that lets a pop see every insert packed beside it. Inserts are
// additionally applied in ascending priority so the backend sees sorted
// runs. The per-op statuses land in ORIGINAL operation order.
func (s *Server) applyBatch(t *task, op *frameOp) (mutated bool) {
	t.growStatuses(len(op.entries))
	t.statuses = t.statuses[:len(op.entries)]
	t.order = t.order[:0]
	for i, e := range op.entries {
		if e.Kind == wire.OpInsert {
			t.order = append(t.order, i)
		}
	}
	sort.SliceStable(t.order, func(a, b int) bool {
		return op.entries[t.order[a]].Arg < op.entries[t.order[b]].Arg
	})
	for i, e := range op.entries {
		if e.Kind != wire.OpInsert {
			t.order = append(t.order, i)
		}
	}
	for _, i := range t.order {
		e := op.entries[i]
		st, arg, data, m := s.applyOp(e.Kind, e.Arg, e.Data)
		mutated = mutated || m
		t.statuses[i] = wire.BatchEntry{Kind: st, Arg: arg, Data: data}
	}
	s.bobs.size.ObserveN(uint64(len(op.entries)))
	t.resp.appendBatchFrame(t.statuses)
	return mutated
}

// growStatuses makes room for n statuses before applyBatch slices it.
func (t *task) growStatuses(n int) {
	if cap(t.statuses) < n {
		t.statuses = make([]wire.BatchEntry, 0, n)
	}
}

// spliceMin is the payload size above which a response value is handed to
// the vectored write as its own buffer instead of being copied into the
// accumulating segment.
const spliceMin = 4 << 10

// respBuf accumulates one task's response frames as a buffer list for a
// single vectored write (net.Buffers / writev). Frame headers and small
// payloads append to one owned segment; payloads of spliceMin bytes or
// more are spliced in by reference, so a large popped value travels from
// backend to socket without a copy. Segments are recorded as offset
// ranges (acc may reallocate while growing), materialized by
// appendBuffers at write time.
type respBuf struct {
	acc     []byte
	parts   []respPart
	accMark int // start of the still-open acc range
}

// respPart is one closed segment: an acc range, or a spliced payload.
type respPart struct {
	off, end int
	ext      []byte
}

func (r *respBuf) reset() {
	r.acc = r.acc[:0]
	r.parts = r.parts[:0]
	r.accMark = 0
}

// splice closes the open acc range and inserts v by reference.
func (r *respBuf) splice(v []byte) {
	if len(r.acc) > r.accMark {
		r.parts = append(r.parts, respPart{off: r.accMark, end: len(r.acc)})
	}
	r.parts = append(r.parts, respPart{ext: v})
	r.accMark = len(r.acc)
}

// appendFrame appends one single-op response frame.
func (r *respBuf) appendFrame(kind wire.Kind, arg int64, data []byte) {
	body := 9 + len(data)
	r.acc = binary.BigEndian.AppendUint32(r.acc, uint32(body))
	r.acc = append(r.acc, byte(kind))
	r.acc = binary.BigEndian.AppendUint64(r.acc, uint64(arg))
	if len(data) >= spliceMin {
		r.splice(data)
	} else {
		r.acc = append(r.acc, data...)
	}
}

// appendBatchFrame appends one StatusBatch frame carrying the per-op
// status entries in operation order.
func (r *respBuf) appendBatchFrame(entries []wire.BatchEntry) {
	body := 9
	for _, e := range entries {
		body += 13 + len(e.Data)
	}
	r.acc = binary.BigEndian.AppendUint32(r.acc, uint32(body))
	r.acc = append(r.acc, byte(wire.StatusBatch))
	r.acc = binary.BigEndian.AppendUint64(r.acc, uint64(len(entries)))
	for _, e := range entries {
		r.acc = append(r.acc, byte(e.Kind))
		r.acc = binary.BigEndian.AppendUint64(r.acc, uint64(e.Arg))
		r.acc = binary.BigEndian.AppendUint32(r.acc, uint32(len(e.Data)))
		if len(e.Data) >= spliceMin {
			r.splice(e.Data)
		} else {
			r.acc = append(r.acc, e.Data...)
		}
	}
}

// appendBuffers materializes the response as a buffer list for one
// vectored write.
func (r *respBuf) appendBuffers(dst net.Buffers) net.Buffers {
	for _, p := range r.parts {
		if p.ext != nil {
			dst = append(dst, p.ext)
		} else {
			dst = append(dst, r.acc[p.off:p.end])
		}
	}
	if len(r.acc) > r.accMark {
		dst = append(dst, r.acc[r.accMark:])
	}
	return dst
}
