package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"skipqueue"
	"skipqueue/internal/client"
	"skipqueue/internal/lease"
	"skipqueue/internal/server"
	"skipqueue/internal/wal"
)

// walMode is the WAL's commit contract. In ModeSync every ACK waits for a
// group-commit fsync, and on a shared disk fsync latency swings by half
// within minutes: the durable workload's throughput moved between 14k and
// 43k ops/s from run to run, beyond any bound a regression check can hold.
// In ModeAsync the WAL still appends, indexes and fsyncs every record, on
// its syncer goroutine, and the drain still syncs before close, so the
// recovery check is unchanged; only the ACK no longer waits for the disk.
const walMode = wal.ModeAsync

// stack is one workload's production stack, built in-process from the
// repository's public constructors, the way cmd/pqd wires them.
type stack struct {
	w     *workload
	queue backend // the structure at the bottom
	tgt   target
	led   *ledger

	srv      *server.Server
	serveErr chan error
	cl       *client.Client
	walq     *wal.Queue
	tbl      *lease.Table
	dir      string
	conns    *connStats // nil unless traced
}

// buildStack constructs the workload's stack over a fresh structure made
// by newQueue, with tracing decorators when tr is non-nil, and prefills it.
// dir is a fresh, empty directory for the WAL.
func buildStack(w *workload, seed uint64, newQueue func() backend, dir string, tr *tracer) (s *stack, err error) {
	s = &stack{w: w, queue: newQueue(), led: newLedger(w.callers + 1), dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	core := s.queue
	if tr != nil {
		core = &coreTimer{inner: s.queue, t: tr}
	}
	if !w.server {
		s.tgt = directTarget{core}
		return s, s.prefill(seed)
	}

	cfg := server.Config{Backend: core}
	if w.wal {
		if tr != nil {
			tr.nest(layerCore, opPush, opPop)
			if w.lease {
				tr.nest(layerWAL, opPush, opPop)
			}
		}
		walq, _, err := wal.OpenQueue(wal.Config{Dir: dir, Mode: walMode}, core)
		if err != nil {
			return s, fmt.Errorf("open wal: %w", err)
		}
		s.walq = walq
		var durable interface {
			backend
			lease.Leaser
			server.Durability
		} = walq
		if tr != nil {
			durable = &walTimer{q: walq, t: tr}
		}
		cfg.Backend, cfg.WAL = durable, durable
		if w.lease {
			s.tbl = lease.New(lease.Config{TTL: 30 * time.Second, Tick: 10 * time.Millisecond}, durable)
			if !s.tbl.Durable() {
				return s, errors.New("lease table over the WAL is not durable")
			}
			cfg.Backend, cfg.Lease = s.tbl, s.tbl
			if tr != nil {
				cfg.Backend = &leaseTimer{tbl: s.tbl, t: tr}
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, fmt.Errorf("listen: %w", err)
	}
	if tr != nil {
		s.conns = &connStats{}
		ln = &countingListener{Listener: ln, st: s.conns}
	}
	s.srv = server.New(cfg)
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	s.cl, err = client.Dial(client.Config{Addr: ln.Addr().String(), Conns: 2, BatchMax: 64})
	if err != nil {
		return s, fmt.Errorf("dial: %w", err)
	}
	if w.lease {
		s.tgt = leaseTarget{s.cl}
	} else {
		s.tgt = clientTarget{s.cl}
	}
	return s, s.prefill(seed)
}

// prefill inserts the workload's starting elements from the prefill
// stream. Through a client the inserts are pipelined, so they batch.
func (s *stack) prefill(seed uint64) error {
	g := newGen(seed, s.w, s.w.callers)
	if s.cl == nil {
		for range s.w.prefill {
			p := g.prefillPrio()
			s.tgt.insert(p, encodeValue(s.led.issue(s.w.callers), p))
		}
		return nil
	}
	pend := make([]*client.Pending, 0, s.w.prefill)
	for range s.w.prefill {
		p := g.prefillPrio()
		pd, err := s.cl.InsertAsync(p, encodeValue(s.led.issue(s.w.callers), p))
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		pend = append(pend, pd)
	}
	for _, pd := range pend {
		if _, err := pd.Wait(); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// close tears the stack down in the order a draining pqd does: the client
// goes, the server drains (nacking outstanding leases and syncing the WAL),
// then the lease table and the WAL close. The structure keeps its elements.
func (s *stack) close() error {
	var errs []error
	if s.cl != nil {
		s.cl.Close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.serveErr; !errors.Is(err, server.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.srv = nil
	}
	if s.tbl != nil {
		s.tbl.Close()
		s.tbl = nil
	}
	if s.walq != nil {
		errs = append(errs, s.walq.Close())
		s.walq = nil
	}
	return errors.Join(errs...)
}

// drain pops every element left in q, single-threaded and quiescent, and
// feeds each to the ledger and the order check.
func drain(q backend, led *ledger) error {
	var dc drainCheck
	for {
		p, v, ok := q.Pop()
		if !ok {
			break
		}
		dc.add(p)
		led.see(v, p)
	}
	return dc.err()
}

// recoverWAL reopens the closed WAL into a fresh strict queue, times it,
// and closes it again; it returns the recovered queue. A reopen must
// recover exactly the elements the ledger has not seen acked.
func recoverWAL(dir string, led *ledger) (backend, time.Duration, error) {
	pq := skipqueue.NewPQ[[]byte]()
	t0 := time.Now()
	q, rec, err := wal.OpenQueue(wal.Config{Dir: dir, Mode: walMode}, pq)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("reopen wal: %w", err)
	}
	if err := q.Close(); err != nil {
		return nil, 0, fmt.Errorf("close reopened wal: %w", err)
	}
	if want := led.unacked(); len(rec.Items) != want || pq.Len() != want {
		return nil, 0, fmt.Errorf("reopened wal holds %d elements (queue %d), want the %d unacked", len(rec.Items), pq.Len(), want)
	}
	return pq, d, nil
}

// freshDir makes a new empty directory under root.
func freshDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
