// Span attribution: merging a client-side and a server-side flight dump by
// trace ID and splitting each request's end-to-end latency into
// network/server-queueing/structure/flush spans. This is the analysis half
// of the flight recorder, shared by cmd/pqtrace and the integration tests.
package flight

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"skipqueue/internal/hist"
)

// Span is one traced request's latency breakdown. All values are
// nanoseconds. Every subtraction happens within a single process's
// monotonic clock, so client/server clock offsets never leak in:
//
//	EndToEnd  = client recv − client send        (client clock)
//	Server    = server flush − server read       (server clock)
//	Queue     = server apply start − server read (micro-batch wait)
//	Structure = backend apply duration
//	Flush     = server flush − server apply end  (response encode)
//	Network   = EndToEnd − Server                (both directions and the
//	            response socket write, plus client-side pipeline
//	            queueing — everything not on the server)
type Span struct {
	Trace     uint64 `json:"trace"`
	EndToEnd  int64  `json:"e2e_ns"`
	Network   int64  `json:"network_ns"`
	Queue     int64  `json:"queue_ns"`
	Structure int64  `json:"structure_ns"`
	Flush     int64  `json:"flush_ns"`
	Server    int64  `json:"server_ns"`
}

// sides of a trace under assembly.
type traceSides struct {
	sendTS, recvTS    int64 // client clock
	readTS            int64 // server clock
	applyTS, applyDur int64
	flushTS           int64
	hasSend, hasRecv  bool
	hasRead, hasApply bool
	hasFlush          bool
}

func (t *traceSides) clientComplete() bool { return t.hasSend && t.hasRecv }
func (t *traceSides) serverComplete() bool { return t.hasRead && t.hasApply && t.hasFlush }

// Attribution is the result of merging one client and one server dump.
type Attribution struct {
	// Spans holds one entry per fully attributed trace (complete client
	// and server records), in trace order.
	Spans []Span
	// Total is the number of distinct trace IDs seen across both dumps.
	Total int
	// Attributed is len(Spans).
	Attributed int
	// ClientOnly counts traces with client events but no server events at
	// all — true orphans (the request never reached a recording server,
	// or the server ring wrapped past it).
	ClientOnly int
	// ServerOnly is the converse orphan: server events, no client events.
	ServerOnly int
	// Partial counts traces present on both sides but missing a span
	// event on one of them (e.g. the ring wrapped between read and flush).
	Partial int
}

// Rate returns the attributed fraction (1 when no traces were seen).
func (a *Attribution) Rate() float64 {
	if a.Total == 0 {
		return 1
	}
	return float64(a.Attributed) / float64(a.Total)
}

// Attribute merges the two dumps by trace ID. Events without a trace ID
// (structure events, batch boundaries, anomalies) are ignored.
func Attribute(client, server Dump) *Attribution {
	traces := map[uint64]*traceSides{}
	side := func(tr uint64) *traceSides {
		t := traces[tr]
		if t == nil {
			t = &traceSides{}
			traces[tr] = t
		}
		return t
	}
	for _, ev := range client.Events {
		if ev.Trace == 0 {
			continue
		}
		switch ev.Kind {
		case KClientSend:
			t := side(ev.Trace)
			t.sendTS, t.hasSend = ev.TS, true
		case KClientRecv:
			t := side(ev.Trace)
			t.recvTS, t.hasRecv = ev.TS, true
		}
	}
	for _, ev := range server.Events {
		if ev.Trace == 0 {
			continue
		}
		switch ev.Kind {
		case KServerRead:
			t := side(ev.Trace)
			t.readTS, t.hasRead = ev.TS, true
		case KServerApply:
			t := side(ev.Trace)
			t.applyTS, t.applyDur, t.hasApply = ev.TS, ev.Arg, true
		case KServerFlush:
			t := side(ev.Trace)
			t.flushTS, t.hasFlush = ev.TS, true
		}
	}

	a := &Attribution{Total: len(traces)}
	ids := make([]uint64, 0, len(traces))
	for tr := range traces {
		ids = append(ids, tr)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, tr := range ids {
		t := traces[tr]
		hasClient := t.hasSend || t.hasRecv
		hasServer := t.hasRead || t.hasApply || t.hasFlush
		switch {
		case hasClient && !hasServer:
			a.ClientOnly++
			continue
		case hasServer && !hasClient:
			a.ServerOnly++
			continue
		case !t.clientComplete() || !t.serverComplete():
			a.Partial++
			continue
		}
		s := Span{
			Trace:     tr,
			EndToEnd:  t.recvTS - t.sendTS,
			Server:    t.flushTS - t.readTS,
			Queue:     t.applyTS - t.applyDur - t.readTS,
			Structure: t.applyDur,
			Flush:     t.flushTS - t.applyTS,
		}
		s.Network = s.EndToEnd - s.Server
		if s.Network < 0 {
			s.Network = 0 // clock granularity jitter on loopback
		}
		a.Spans = append(a.Spans, s)
	}
	a.Attributed = len(a.Spans)
	return a
}

// Table renders the attribution as an aligned span table: per-span
// quantiles, each span's share of total attributed time, and the orphan
// tally. The shares of network/queue/structure/flush sum to ~100% of the
// end-to-end total by construction.
func (a *Attribution) Table() string {
	var b strings.Builder
	rows := []struct {
		name string
		get  func(Span) int64
	}{
		{"network", func(s Span) int64 { return s.Network }},
		{"server.queue", func(s Span) int64 { return s.Queue }},
		{"structure", func(s Span) int64 { return s.Structure }},
		{"server.flush", func(s Span) int64 { return s.Flush }},
		{"end-to-end", func(s Span) int64 { return s.EndToEnd }},
	}
	var e2eSum int64
	sums := make([]int64, len(rows))
	hists := make([]*hist.H, len(rows))
	for i := range hists {
		hists[i] = &hist.H{}
	}
	for _, s := range a.Spans {
		e2eSum += s.EndToEnd
		for i, r := range rows {
			v := r.get(s)
			sums[i] += v
			hists[i].Observe(time.Duration(v))
		}
	}
	fmt.Fprintf(&b, "%-13s %10s %10s %10s %10s %7s\n", "span", "mean", "p50", "p99", "max", "share")
	for i, r := range rows {
		h := hists[i]
		share := 0.0
		if e2eSum > 0 {
			share = 100 * float64(sums[i]) / float64(e2eSum)
		}
		fmt.Fprintf(&b, "%-13s %10v %10v %10v %10v %6.1f%%\n",
			r.name, h.Mean().Round(time.Microsecond), h.Quantile(0.50).Round(time.Microsecond),
			h.Quantile(0.99).Round(time.Microsecond), h.Max().Round(time.Microsecond), share)
	}
	fmt.Fprintf(&b, "traces: %d  attributed: %d (%.1f%%)  client-only: %d  server-only: %d  partial: %d\n",
		a.Total, a.Attributed, 100*a.Rate(), a.ClientOnly, a.ServerOnly, a.Partial)
	return b.String()
}
