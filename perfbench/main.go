// Command perfbench is the repository's benchmark. It builds one
// workload's production stack in-process, drives it in a closed loop for a
// fixed time, checks that every element came out exactly once and in
// order, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer ones) as its last line of output. Run it from the repository
// root:
//
//	bash perfbench/run.sh --workload embedded --seed 1 --seconds 20 --trace 0
//
// README.md maps each layer to its metrics and says why each workload
// exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"skipqueue"
)

// reopens is how many times a durable run reopens its WAL; wal.recover_s
// is the median.
const reopens = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: embedded, serve-batched or durable-lease")
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same op sequences")
		seconds = fs.Int("seconds", 10, "length of the measured window in seconds (1-300)")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir  = fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for WAL files and the span log")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || *seconds > 300 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (embedded, serve-batched, durable-lease), --seconds 1-300, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fp := machineFingerprint(".", *outDir)
	fpJSON, _ := json.Marshal(fp) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d callers %d\n", w.name, *seed, *seconds, *trace, w.callers)

	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: *outDir}
	var res *result
	var err error
	if *trace == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.perLayer()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, c := range res.checks {
		fmt.Fprintf(stdout, "check %s\n", c)
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "info %s\n", n)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "metric %-34s %16.6f %-10s %s\n", m.name, m.value, m.unit, m.note)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct {
		return 1
	}
	return 0
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type result struct {
	correct           bool
	attempted, failed uint64
	metrics           []metric
	checks            []string
	notes             []string // figures printed for people, outside the result line
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

// check records an output check; a failed one makes the run incorrect.
func (r *result) check(name string, err error) {
	if err != nil {
		r.correct = false
		r.checks = append(r.checks, fmt.Sprintf("%s FAILED: %v", name, err))
		return
	}
	r.checks = append(r.checks, name+" ok")
}

func (r *result) json() (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

type bench struct {
	w       *workload
	seed    uint64
	seconds time.Duration
	outDir  string
	dirs    int
}

func newPQ() backend         { return skipqueue.NewPQ[[]byte]() }
func newGlobalHeap() backend { return skipqueue.NewGlobalHeapPQ[[]byte]() }

// nextDir returns a fresh WAL directory for one stack.
func (b *bench) nextDir() (string, error) {
	b.dirs++
	return freshDir(b.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), b.dirs))
}

func warmFor(measure time.Duration) time.Duration { return min(measure/10, time.Second) }

// phase is one stack driven through its measured slots, torn down and
// checked.
type phase struct {
	wins    []*window // one per slot class
	recover []time.Duration
}

// runPhase builds an untraced stack over a structure from newQueue and
// drives it for one slot.
func (b *bench) runPhase(w *workload, newQueue func() backend, measure time.Duration, res *result) (*window, error) {
	dir, err := b.nextDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := buildStack(w, b.seed, newQueue, dir, nil)
	if err != nil {
		return nil, err
	}
	ph, err := b.drive(s, measure, []int{0}, nil, res)
	if err != nil {
		return nil, err
	}
	return ph.wins[0], nil
}

// drive runs a built stack's closed loop (see runLoop), tears the stack
// down and runs every output check on what it left.
func (b *bench) drive(s *stack, slot time.Duration, classes []int, mark func(class int, begin bool), res *result) (*phase, error) {
	ph := &phase{wins: runLoop(s.w, b.seed, s.tgt, s.led, warmFor(slot*time.Duration(len(classes))), slot, classes, mark)}
	for _, w := range ph.wins {
		res.attempted += w.ops
		res.failed += w.failed
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("tear down %s: %w", s.w.name, err)
	}
	rest := s.queue
	if s.w.wal {
		var err error
		for i := 0; i < reopens && err == nil; i++ {
			var d time.Duration
			rest, d, err = recoverWAL(s.dir, s.led)
			ph.recover = append(ph.recover, d)
		}
		res.check(s.w.name+": reopened WAL holds exactly the unacked elements", err)
		if err != nil {
			return ph, nil
		}
	}
	res.check(s.w.name+": final drain in non-decreasing priority", drain(rest, s.led))
	res.check(s.w.name+": every element delivered, acked or drained exactly once", s.led.verify())
	return ph, nil
}

// endToEnd is the untraced run: build the stack w.setups times, measure the
// last build for the full window, check it.
func (b *bench) endToEnd() (*result, error) {
	res := &result{correct: true}
	var setups []time.Duration
	var s *stack
	for i := range b.w.setups {
		dir, err := b.nextDir()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		s, err = buildStack(b.w, b.seed, newPQ, dir, nil)
		setups = append(setups, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if i < b.w.setups-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
	}
	defer os.RemoveAll(s.dir)
	ph, err := b.drive(s, b.seconds, []int{0}, nil, res)
	if err != nil {
		return nil, err
	}
	win := ph.wins[0]
	ops := float64(win.ops)
	res.add("throughput_ops_s", win.rate(), "ops/s", fmt.Sprintf("from %d one-second slices", len(win.sliceRates)))
	res.add("insert_p50_us", win.insert.quantile(0.50)/1e3, "us", fmt.Sprintf("n=%d", win.insert.n))
	res.add("consume_p50_us", win.consume.quantile(0.50)/1e3, "us", fmt.Sprintf("n=%d", win.consume.n))
	res.notes = append(res.notes, fmt.Sprintf("one-second slice rates (ops/s): %.0f", win.sliceRates))
	res.notes = append(res.notes, fmt.Sprintf("insert_p99_us %.3f (n=%d) consume_p99_us %.3f (n=%d); reported by --trace 1",
		win.insert.quantile(0.99)/1e3, win.insert.n, win.consume.quantile(0.99)/1e3, win.consume.n))
	res.add("cpu_us_per_op", float64(win.sys.cpu)/1e3/ops, "us/op", "getrusage user+sys")
	res.add("allocs_per_op", float64(win.sys.allocs)/ops, "allocs/op", "")
	res.add("bytes_per_op", float64(win.sys.bytes)/ops, "B/op", "")
	res.add("peak_rss_mb", win.peakRSSMB, "MiB", "VmHWM as the window closes")
	res.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d", len(setups)))
	if len(ph.recover) > 0 {
		res.notes = append(res.notes, fmt.Sprintf("recover_s %.6f, median of %d reopens; reported by --trace 1 as wal.recover_s", median(ph.recover), len(ph.recover)))
	}
	return res, nil
}

// coreCounts are the PQ.Stats counters the per-layer metrics use, summed
// over the traced slots.
type coreCounts struct {
	inserts, pops, empties, scanSteps, lockRetries uint64
}

func (c *coreCounts) add(a, b skipqueue.Stats) {
	c.inserts += b.Inserts - a.Inserts
	c.pops += (b.DeleteMins - a.DeleteMins) + (b.Empties - a.Empties)
	c.empties += b.Empties - a.Empties
	c.scanSteps += b.ScanSteps - a.ScanSteps
	c.lockRetries += b.LockRetries - a.LockRetries
}

// perLayer is the traced run. One stack with every decorator runs eight
// slots of a tenth of --seconds, alternately untraced and traced, so the
// host's drift falls on both alike: the untraced slots are the base for
// trace.overhead and give the p99s, the traced ones give the per-layer
// metrics. Then embedded's op sequence is replayed for a tenth of
// --seconds each on the strict queue and on the global-lock heap.
func (b *bench) perLayer() (*result, error) {
	const untraced, traced = 0, 1
	res := &result{correct: true}
	slot := b.seconds / 10

	tr := newTracer(64, 1<<17)
	dir, err := b.nextDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := buildStack(b.w, b.seed, newPQ, dir, tr)
	if err != nil {
		return nil, err
	}
	pq := s.queue.(*skipqueue.PQ[[]byte])
	var core coreCounts
	var conns connCounts
	var pq0 skipqueue.Stats
	var n0 connCounts
	mark := func(class int, begin bool) {
		if class != traced {
			return
		}
		tr.on.Store(begin)
		if begin {
			pq0, n0 = pq.Stats(), s.conns.snapshot()
			return
		}
		core.add(pq0, pq.Stats())
		conns.add(n0, s.conns.snapshot())
	}
	ph, err := b.drive(s, slot, []int{untraced, traced, untraced, traced, untraced, traced, untraced, traced}, mark, res)
	if err != nil {
		return nil, err
	}
	if err := tr.writeLog(filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.csv", b.w.name, b.seed))); err != nil {
		return nil, fmt.Errorf("write span log: %w", err)
	}
	embedded := findWorkload("embedded")
	strict, err := b.runPhase(embedded, newPQ, slot, res)
	if err != nil {
		return nil, err
	}
	naive, err := b.runPhase(embedded, newGlobalHeap, slot, res)
	if err != nil {
		return nil, err
	}

	plain, win := ph.wins[untraced], ph.wins[traced]
	ops := float64(win.ops)
	perOp := func(v uint64) float64 { return float64(v) / ops }
	coreNs := tr.busyNs(layerCore)
	res.add("core.push_ns", tr.meanNs(layerCore, opPush), "ns", "decorator around the structure")
	res.add("core.pop_ns", tr.meanNs(layerCore, opPop), "ns", "")
	res.add("core.busy_ns_per_op", perOp(coreNs), "ns/op", "")
	res.add("core.scan_steps_per_pop", ratio(core.scanSteps, core.pops), "count", "PQ.Stats")
	res.add("core.lock_retries_per_push", ratio(core.lockRetries, core.inserts), "count", "PQ.Stats")
	res.add("core.pop_empty_ratio", ratio(core.empties, core.pops), "ratio", "PQ.Stats")
	res.add("core.throughput_vs_globallock", strict.rate()/naive.rate(), "ratio",
		fmt.Sprintf("embedded replay: %.0f vs %.0f ops/s", strict.rate(), naive.rate()))

	commit := &tr.stats[layerWAL][opCommit]
	walSelfPerOp := tr.selfNs(layerWAL, opCommit, opSync) / ops
	res.add("wal.self_ns_per_op", walSelfPerOp, "ns/op", "span log: wal spans minus their core children")
	res.add("wal.commits_per_op", perOp(commit.calls.Load()), "count", "")
	res.add("wal.commit_wait_us", ratio(commit.ns.Load(), commit.calls.Load())/1e3, "us", "mean")
	res.add("wal.disk_write_bytes_per_op", perOp(win.sys.writeBytes), "B/op", "/proc/self/io write_bytes")
	res.add("wal.recover_s", median(ph.recover), "s", fmt.Sprintf("median of %d reopens", len(ph.recover)))

	res.add("lease.push_ns", tr.meanNs(layerLease, opPush), "ns", "decorator above the table")
	res.add("lease.redeliveries_per_abandon", ratio(win.redel, win.abandons), "ratio", fmt.Sprintf("%d abandoned", win.abandons))

	res.add("server.reads_per_op", perOp(conns.reads), "count", "listener wrapper")
	res.add("server.writes_per_op", perOp(conns.writes), "count", "")
	res.add("server.write_ns_per_op", perOp(conns.writeNs), "ns/op", "")
	res.add("server.bytes_in_per_op", perOp(conns.bytesIn), "B/op", "")
	res.add("server.bytes_out_per_op", perOp(conns.bytesOut), "B/op", "")
	res.add("wire.frames_in_per_op", perOp(conns.framesIn), "count", "length prefixes")
	res.add("client.poplease_p50_us", win.popLease.quantile(0.5)/1e3, "us", fmt.Sprintf("n=%d", win.popLease.n))
	res.add("client.ack_p50_us", win.ack.quantile(0.5)/1e3, "us", fmt.Sprintf("n=%d", win.ack.n))

	sys := &win.sys
	res.add("runtime.gc_per_mop", perOp(sys.gcCycles)*1e6, "count", "GC cycles per million ops")
	res.add("runtime.gc_pause_p99_us", sys.gcPauses.quantile(0.99)*1e6, "us", "")
	res.add("runtime.sched_latency_p99_us", sys.schedLat.quantile(0.99)*1e6, "us", "")
	gcFrac := 0.0
	if sys.allCPU > 0 {
		gcFrac = sys.gcCPU / sys.allCPU
	}
	res.add("runtime.gc_cpu_fraction", gcFrac, "ratio", "")

	res.add("residual.cpu_ns_per_op", float64(sys.cpu)/ops-perOp(coreNs)-walSelfPerOp, "ns/op", "CPU per op minus core and wal busy time")
	res.add("trace.overhead", 1-win.rate()/plain.rate(), "ratio",
		fmt.Sprintf("traced %.0f vs untraced %.0f ops/s, interleaved", win.rate(), plain.rate()))
	res.add("error_rate", ratio(res.failed, res.attempted), "ratio", "")
	res.add("insert_p99_us", plain.insert.quantile(0.99)/1e3, "us", fmt.Sprintf("untraced slots, n=%d", plain.insert.n))
	res.add("consume_p99_us", plain.consume.quantile(0.99)/1e3, "us", fmt.Sprintf("untraced slots, n=%d", plain.consume.n))
	return res, nil
}

// connCounts is a plain copy of connStats; the zero value stands for an
// unserved stack.
type connCounts struct {
	reads, writes, bytesIn, bytesOut, writeNs, framesIn uint64
}

func (c *connStats) snapshot() connCounts {
	if c == nil {
		return connCounts{}
	}
	return connCounts{c.reads.Load(), c.writes.Load(), c.bytesIn.Load(), c.bytesOut.Load(), c.writeNs.Load(), c.framesIn.Load()}
}

func (c *connCounts) add(a, b connCounts) {
	c.reads += b.reads - a.reads
	c.writes += b.writes - a.writes
	c.bytesIn += b.bytesIn - a.bytesIn
	c.bytesOut += b.bytesOut - a.bytesOut
	c.writeNs += b.writeNs - a.writeNs
	c.framesIn += b.framesIn - a.framesIn
}

func median(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2].Seconds()
	}
	return (s[len(s)/2-1] + s[len(s)/2]).Seconds() / 2
}
