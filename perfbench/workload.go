package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skipqueue/internal/client"
)

// workload is one traffic mix. All are closed loops: a fixed number of
// caller goroutines, each issuing its next op when the previous returns.
// An op is an insert or a consume, 50/50; a consume is a DeleteMin, or on
// a lease workload a PopLease followed by its Ack.
type workload struct {
	name    string
	callers int
	prefill int
	// prioBits draws priorities uniformly from [0, 2^prioBits); 0 means
	// ascending arrival-sequence priorities, as a job queue assigns them.
	prioBits uint
	server   bool // through server.New and one client.Client
	wal      bool // wal.OpenQueue (walMode) under the server
	lease    bool // lease.New over the WAL; consumes are PopLease + Ack
	// setups is how many times an untraced run builds the stack; setup_s
	// is the median. A build of a few milliseconds, dominated by syscalls and
	// loopback round trips, needs more builds for a steady median than
	// embedded's second-long prefill does.
	setups int
}

var workloads = []*workload{
	{name: "embedded", callers: 2, prefill: 1 << 18, prioBits: 40, setups: 5},
	{name: "serve-batched", callers: 128, prefill: 1000, prioBits: 20, server: true, setups: 25},
	{name: "durable-lease", callers: 32, prefill: 1000, server: true, wal: true, lease: true, setups: 25},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Lease settings: a consume abandons its lease with probability
// 1/abandonEvery, under abandonTTL, so the expiry sweep redelivers it;
// every other lease gets pqd's default TTL and is acked.
const (
	abandonEvery = 100
	abandonTTL   = 20 * time.Millisecond
)

type opKind uint8

const (
	opInsert opKind = iota
	opConsume
)

type op struct {
	kind    opKind
	prio    int64
	abandon bool
}

// gen yields one stream's op sequence. It depends only on the seed, the
// workload and the stream index, never on timing: one 64-bit draw per op
// picks the kind (bit 0), the abandon decision (bits 8-23) and a uniform
// priority (the top prioBits bits).
type gen struct {
	s       uint64
	w       *workload
	stream  int
	inserts int64
}

func newGen(seed uint64, w *workload, stream int) *gen {
	return &gen{s: splitmix(seed ^ splitmix(uint64(stream)+1)), w: w, stream: stream}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (g *gen) rand() uint64 {
	g.s += 0x9e3779b97f4a7c15
	return splitmix(g.s)
}

// next returns a caller's next op.
func (g *gen) next() op {
	x := g.rand()
	if x&1 == 1 {
		return op{kind: opConsume, abandon: g.w.lease && (x>>8&0xffff)%abandonEvery == 0}
	}
	return op{kind: opInsert, prio: g.prio(x)}
}

// prefillPrio returns the priority of the prefill stream's next element.
func (g *gen) prefillPrio() int64 { return g.prio(g.rand()) }

func (g *gen) prio(x uint64) int64 {
	if g.w.prioBits > 0 {
		return int64(x >> (64 - g.w.prioBits))
	}
	// Ascending: the prefill takes 0..prefill-1, then caller c's k-th
	// insert takes prefill + k*callers + c, so arrivals land near the tail.
	n := g.inserts
	g.inserts++
	if g.stream == g.w.callers {
		return n
	}
	return int64(g.w.prefill) + n*int64(g.w.callers) + int64(g.stream)
}

// target is the surface a caller drives: the structure itself, or a client.
type target interface {
	insert(prio int64, value []byte) error
	// consume removes one element. For a lease it also acks, unless
	// abandon is set; acked reports whether the element is retired.
	consume(abandon bool, cs *callerStats) (prio int64, value []byte, found, acked bool, err error)
}

type directTarget struct{ b backend }

func (d directTarget) insert(prio int64, value []byte) error {
	d.b.Push(prio, value)
	return nil
}

func (d directTarget) consume(bool, *callerStats) (int64, []byte, bool, bool, error) {
	p, v, ok := d.b.Pop()
	return p, v, ok, ok, nil
}

type clientTarget struct{ cl *client.Client }

func (c clientTarget) insert(prio int64, value []byte) error { return c.cl.Insert(prio, value) }

func (c clientTarget) consume(bool, *callerStats) (int64, []byte, bool, bool, error) {
	p, v, ok, err := c.cl.DeleteMin()
	return p, v, ok, ok, err
}

// leaseTarget also times PopLease and Ack apart, for the traced run.
type leaseTarget struct{ cl *client.Client }

func (l leaseTarget) insert(prio int64, value []byte) error { return l.cl.Insert(prio, value) }

func (l leaseTarget) consume(abandon bool, cs *callerStats) (int64, []byte, bool, bool, error) {
	ttl := time.Duration(0) // the server's default
	if abandon {
		ttl = abandonTTL
	}
	t0 := time.Now()
	ls, found, err := l.cl.PopLease(ttl)
	if err != nil || !found {
		return 0, nil, false, false, err
	}
	cs.popLease.observe(time.Since(t0))
	if abandon {
		return ls.Priority, ls.Value, true, false, nil
	}
	t1 := time.Now()
	if err := ls.Ack(); err != nil {
		return ls.Priority, ls.Value, true, false, err
	}
	cs.ack.observe(time.Since(t1))
	return ls.Priority, ls.Value, true, true, nil
}

// callerStats are one caller's results for one class of measured slots;
// only the caller's goroutine writes them until the run ends.
type callerStats struct {
	insert, consume  histo
	popLease, ack    histo
	ops, failed      uint64
	abandons, redels uint64
}

// counter is a cache-line-sized atomic count, one per caller, so that the
// slice sampler can read progress without callers sharing a line.
type counter struct {
	n atomic.Uint64
	_ [56]byte
}

// window is everything measured in one class of slots.
type window struct {
	ops, failed     uint64
	abandons, redel uint64
	sliceRates      []float64 // ops/s in each sliceLen of the window's slots
	insert, consume histo
	popLease, ack   histo
	sys             sysDelta
	peakRSSMB       float64 // VmHWM as the window's last slot closes
}

// sliceLen splits a slot for the throughput median: a median of one-second
// rates shrugs off the bursts a shared host adds.
const sliceLen = time.Second

// rate is the window's throughput: the median slice rate, or the mean
// over a window too short to slice.
func (w *window) rate() float64 {
	if len(w.sliceRates) < 3 {
		return float64(w.ops) / w.sys.elapsed.Seconds()
	}
	s := append([]float64(nil), w.sliceRates...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runLoop drives the workload's callers against tgt: a warm-up, then one
// measured slot of length slot per entry of classes, back to back. Slot i
// is measured into window classes[i], so classes {0, 1, 0, 1} interleaves
// two conditions against the host's drift. mark(class, begin), if set, is
// called at the edges of each slot. runLoop returns one window per class
// once every caller has returned.
func runLoop(w *workload, seed uint64, tgt target, led *ledger, warm, slot time.Duration, classes []int, mark func(class int, begin bool)) []*window {
	nClasses := 0
	for _, c := range classes {
		nClasses = max(nClasses, c+1)
	}
	stats := make([][]callerStats, nClasses)
	for i := range stats {
		stats[i] = make([]callerStats, w.callers)
	}
	done := make([]counter, w.callers)
	total := func() (n uint64) {
		for i := range done {
			n += done[i].n.Load()
		}
		return n
	}

	// phase 0 is the warm-up, phase i+1 is slot i, and past the last slot
	// the callers stop.
	var phase atomic.Int32
	stop := int32(len(classes) + 1)
	var wg sync.WaitGroup
	for c := range w.callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runCaller(w, newGen(seed, w, c), c, tgt, led, &phase, stop, classes, stats, &done[c])
		}(c)
	}
	time.Sleep(warm)

	wins := make([]*window, nClasses)
	for i := range wins {
		wins[i] = &window{}
	}
	for i, class := range classes {
		win := wins[class]
		if mark != nil {
			mark(class, true)
		}
		before := readSys()
		phase.Store(int32(i + 1))
		deadline := before.at.Add(slot)
		last, lastAt := total(), before.at
		for left := slot; left > 0; left = time.Until(deadline) {
			time.Sleep(min(left, sliceLen))
			n, now := total(), time.Now()
			// A tail shorter than half a slice is too noisy to rate.
			if now.Sub(lastAt) >= sliceLen/2 {
				win.sliceRates = append(win.sliceRates, float64(n-last)/now.Sub(lastAt).Seconds())
			}
			last, lastAt = n, now
		}
		if i == len(classes)-1 {
			phase.Store(stop)
		}
		win.sys.add(before, readSys())
		win.peakRSSMB = peakRSSMB()
		if mark != nil {
			mark(class, false)
		}
	}
	wg.Wait()
	for class, win := range wins {
		for i := range stats[class] {
			s := &stats[class][i]
			win.ops += s.ops
			win.failed += s.failed
			win.abandons += s.abandons
			win.redel += s.redels
			win.insert.merge(&s.insert)
			win.consume.merge(&s.consume)
			win.popLease.merge(&s.popLease)
			win.ack.merge(&s.ack)
		}
	}
	return wins
}

func runCaller(w *workload, g *gen, c int, tgt target, led *ledger, phase *atomic.Int32, stop int32, classes []int, stats [][]callerStats, done *counter) {
	scratch := new(callerStats) // warm-up ops are counted here and dropped
	for {
		ph := phase.Load()
		if ph >= stop {
			return
		}
		cs := scratch
		if ph > 0 {
			cs = &stats[classes[ph-1]][c]
		}
		o := g.next()
		t0 := time.Now()
		if o.kind == opInsert {
			id := led.issue(c)
			if err := tgt.insert(o.prio, encodeValue(id, o.prio)); err != nil {
				led.markUncertain(id)
				cs.failed++
			} else {
				cs.insert.observe(time.Since(t0))
			}
		} else {
			prio, val, found, acked, err := tgt.consume(o.abandon, cs)
			d := time.Since(t0)
			switch {
			case err != nil:
				cs.failed++
			case !found:
				cs.consume.observe(d)
			default:
				if w.lease && led.wasAbandoned(val) {
					cs.redels++
				}
				if acked {
					led.see(val, prio)
				} else {
					led.abandon(val)
					cs.abandons++
				}
				cs.consume.observe(d)
			}
		}
		cs.ops++
		if ph > 0 {
			done.n.Add(1)
		}
	}
}
