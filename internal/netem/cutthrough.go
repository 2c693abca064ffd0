package netem

import "sdrrdma/internal/nicsim"

// Cut-through hops. A queue whose every arrival comes from one feeding
// queue handles a packet in a way that is fixed once the feeder has
// admitted it: the packet arrives at the feeder's finish plus its
// latency, finishes by Lindley's recursion, fin = max(arr, lastFin) +
// ser, and meets the tail-drop test and ECN mark at the buffered bytes
// of that instant, which only the feeder's earlier packets set. So the
// feeder admits the packet into the next queue at once, at its
// arrival, and only the last queue of such a run schedules a delivery:
// a flow packet crosses the run in one clock event.
//
// An ahead admission fixes the entry's finish, and sets the packet's
// ECN bit, which nothing reads while the packet is in flight; nothing
// more. The entry counts, takes its high-watermark and ECN count, and
// its feeder recycles the transit that carried it when settle replays
// the arrival at its instant, settling the feeder up to it first: what
// the hop's delivery event would have done. So the queue looks to anything that
// reads or changes it exactly as the un-fused queue would at that
// instant. Anything that changes it un-fuses it first (see unfuse), and
// so does an arrival no ahead admission counted on (see Queue.admit).
//
// A hop cuts through only on a virtual clock, from a queue whose
// departures cannot drop (lossless, up) into one that refuses nothing
// ahead, and only between queues with no generator, drop hook or
// telemetry sink, whose probes and hook calls would otherwise run at
// other moments than un-fused, and with a propagation delay on both:
// with none, a queue's own deliveries settle it at the instants its
// arrivals fall on.

// forward takes a transit for pkt, which reaches dst at instant at,
// and admits it ahead into dst's queue if this hop cuts through: dst is
// a Port whose queue q feeds; otherwise it schedules the transit's
// delivery. Caller holds the lock and has applied q's own admission to
// pkt, its ECN mark included.
func (q *Queue) forward(pkt *nicsim.Packet, dst nicsim.Deliverer, at int64) *transit {
	tr := q.take(pkt, dst, at)
	if p, ok := dst.(*Port); ok && p.q.feeder == q && q.cfg.Loss == nil && q.quiet() && p.q.admitAhead(pkt, p.dst, tr) {
		tr.parked = true
		return tr
	}
	return q.schedule(tr)
}

// quiet reports whether the queue may take part in a cut-through hop:
// a virtual clock, a propagation delay, the link up, and no generator,
// drop hook or telemetry sink.
func (q *Queue) quiet() bool {
	return q.serial && q.cfg.Latency > 0 && !q.down && len(q.gens) == 0 && q.onDrop == nil && q.sink == nil
}

// admitAhead admits pkt, bound for dst, into the queue at up.at, the
// instant up delivers it, if its admission can be fixed now: no hop
// event is under way here and no earlier arrival is still to come, and
// the buffer will have room. Otherwise it reports false, and up is
// scheduled as an ordinary hop.
func (q *Queue) admitAhead(pkt *nicsim.Packet, dst nicsim.Deliverer, up *transit) bool {
	arr := up.at
	if q.inbound > 0 || !q.quiet() || q.ahead > 0 && q.fifo.at(q.fifo.n-1).arr >= arr {
		return false
	}
	// The entries that finish before arr have left by then; the rest,
	// ahead ones included, are the buffered bytes the arrival meets.
	for q.cut < q.fifo.n && q.fifo.at(q.cut).fin < arr {
		q.cutBytes += q.fifo.at(q.cut).size
		q.cut++
	}
	size := wireBytes(pkt)
	used := q.used + q.aheadBytes - q.cutBytes + size
	if q.cfg.BufferBytes > 0 && used > q.cfg.BufferBytes {
		return false
	}
	fin := arr
	if q.cut < q.fifo.n {
		fin = q.fifo.at(q.fifo.n - 1).fin
	}
	fin += q.txTime(size)
	mark := q.cfg.MarkThresholdBytes > 0 && used >= q.cfg.MarkThresholdBytes && !pkt.Marked
	if mark {
		pkt.Marked = true
	}
	e := q.fifo.push()
	e.size, e.fin, e.arr = size, fin, arr
	q.ahead++
	q.aheadBytes += size
	e.tr = q.forward(pkt, dst, fin+int64(q.cfg.Latency))
	e.tr.up, e.tr.mark = up, mark
	return true
}

// arriveAhead replays the arrival of e, the oldest entry admitted
// ahead, at its instant: its feeder settles up to the arrival, which
// departs the packet there, and recycles the transit, and the entry is
// admitted as Queue.admit would have.
func (q *Queue) arriveAhead(e *queued, t *tally) {
	up := e.tr.up
	up.q.departTo(up, e.arr)
	up.parked = false
	up.q.recycle(up)
	e.tr.up = nil
	q.ahead--
	q.aheadBytes -= e.size
	if q.fifo.n-q.ahead == 1 {
		q.started()
	}
	q.used += e.size
	if q.used > q.high {
		q.high = q.used
	}
	t.enqueued++
	if e.tr.mark {
		t.marked++
	}
}

// unfuse returns the queue to ordinary hops before a change to it: the
// packets admitted ahead into it and, through it, into the queues it
// feeds are taken back (see takeBack). Caller holds the lock and has
// settled the queue up to now.
func (q *Queue) unfuse() {
	if !q.serial {
		return
	}
	if q.ahead > 0 {
		q.takeBack()
	}
	for i := 0; i < q.fifo.n; i++ {
		if tr := q.fifo.at(i).tr; tr != nil && tr.parked {
			tr.dst.(*Port).q.unfuseInto()
		}
	}
}

// unfuseInto takes back the packets admitted ahead into the queue.
func (q *Queue) unfuseInto() {
	q.catchUp()
	if q.ahead > 0 {
		q.takeBack()
	}
}

// takeBack moves every packet admitted ahead whose arrival is still to
// be replayed back to an ordinary hop event of its feeder at its
// arrival, as setLatency moves buffered transits: those it carried on
// ahead into the queues downstream are taken back there first, the
// delivery each scheduled is voided, and the entries leave the fifo.
// Caller has settled the queue up to now.
func (q *Queue) takeBack() {
	first := q.fifo.n - q.ahead
	for i := first; i < q.fifo.n; i++ {
		if tr := q.fifo.at(i).tr; tr.parked {
			tr.dst.(*Port).q.unfuseInto()
		}
	}
	for i := first; i < q.fifo.n; i++ {
		e := q.fifo.at(i)
		up := e.tr.up
		if e.tr.mark {
			up.pkt.Marked = false
		}
		e.tr.up = nil
		e.tr.void()
		up.parked = false
		up.q.schedule(up)
		*e = queued{}
	}
	q.fifo.n = first
	q.ahead, q.aheadBytes = 0, 0
	q.cut, q.cutBytes = 0, 0
}

// linkFeeders counts the hops of a path in the feeds of their queues,
// n = 1 as the path goes live and n = -1 as it leaves, and updates
// those queues' feeders (see Queue.feed). Only a virtual clock's queues
// have feeders. Caller holds pathMu.
func (t *Topology) linkFeeders(hops []hop, n int) {
	if !t.clk.IsVirtual() {
		return
	}
	var prev *Queue
	for _, h := range hops {
		q := h.queue()
		q.feed(prev, n)
		prev = q
	}
}

// feed counts n more live path hops through the queue that come from
// prev (n = -1: one fewer) and sets its feeder: the one queue before it
// on every live path through it, nil when a path starts at it or two
// come from different queues. A queue no live path crosses keeps its
// feeder, so the packets a closed flow leaves in flight still cut
// through. A queue whose feeder changes takes back what the old one
// admitted ahead. Caller holds the topology's pathMu.
func (q *Queue) feed(prev *Queue, n int) {
	if prev == q.from || q.fromN == 0 {
		q.from, q.fromN = prev, q.fromN+n
	} else {
		if q.more == nil {
			q.more = map[*Queue]int{}
		}
		if c := q.more[prev] + n; c != 0 {
			q.more[prev] = c
		} else {
			delete(q.more, prev)
		}
	}
	if q.fromN == 0 {
		for q.from, q.fromN = range q.more {
			delete(q.more, q.from)
			break
		}
	}
	if q.fromN == 0 {
		return
	}
	f := q.from
	if len(q.more) > 0 {
		f = nil
	}
	if f != q.feeder {
		q.unfuseInto()
		q.feeder = f
	}
}
