package telemetry

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// Trace is a whole run's flight record: one Recorder per sweep cell,
// keyed by cell index. It implements clock.CellProbe so a Lanes sweep
// brackets every cell with start/finish events, and its exports walk
// cells in index order — the ordering discipline that makes the output
// byte-identical for any worker count and GOMAXPROCS value.
type Trace struct {
	label string

	mu    sync.Mutex
	cells []*Recorder
}

// NewTrace returns an empty trace labelled label (the figure or run
// name; it becomes part of each cell's process name in Perfetto).
func NewTrace(label string) *Trace { return &Trace{label: label} }

// Cell returns cell i's recorder, creating it (labelled "cell-i") on
// first use. Safe from concurrent sweep workers; distinct cells get
// distinct recorders, so within-cell recording stays uncontended.
func (t *Trace) Cell(i int) *Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i >= len(t.cells) {
		t.cells = append(t.cells, nil)
	}
	if t.cells[i] == nil {
		t.cells[i] = NewRecorder(fmt.Sprintf("cell-%d", i))
	}
	return t.cells[i]
}

// CellStart implements clock.CellProbe: stamp the cell's time origin
// and record the start event.
func (t *Trace) CellStart(cell int, nowNanos int64) {
	r := t.Cell(cell)
	r.setBase(nowNanos)
	r.Event(nowNanos, evCellStart, r.Track("lane"), int64(cell), 0, 0, 0)
}

// CellFinish implements clock.CellProbe.
func (t *Trace) CellFinish(cell int, nowNanos int64) {
	r := t.Cell(cell)
	r.mu.Lock()
	base := r.base
	r.span = nowNanos - base
	r.mu.Unlock()
	r.Event(nowNanos, evCellFinish, r.Track("lane"), int64(cell), nowNanos-base, 0, 0)
}

// kindArgs names each kind's int64 arguments for the Chrome trace
// (empty: argument unused).
var kindArgs = [kindCount][4]string{
	EvTailDrop:     {"occ", "bytes"},
	EvChannelDrop:  {"", "bytes"},
	EvLinkDownDrop: {"", "bytes"},
	EvECNMark:      {"occ"},
	EvLinkDown:     {"edge"},
	EvLinkUp:       {"edge"},
	EvReroute:      {"routed", "node"},
	EvRetransmit:   {"chunk", "cause", "seg"},
	EvNack:         {"missing", "seg"},
	EvLateReAck:    {"slot", "gen"},
	EvSegPlan:      {"seg", "rung"},
	EvSegStats:     {"seg", "loss_ppm", "mark_ppm", "rung"},
	EvLadderSwitch: {"seg", "from", "to", "loss_ppm"},
	EvColdBuild:    {"built"},
	EvLease:        {"leased"},
	EvRelease:      {"leased"},
	evCellStart:    {"cell"},
	evCellFinish:   {"cell", "elapsed_ns"},
	EvTransfer:     {"bytes", "dur_ns"},
	EvQuarantine:   {"quarantined"},
}

// jsonEscape writes s as a JSON string body (no surrounding quotes).
// Track and label names are ASCII identifiers by construction; the
// escaper still handles quotes/backslashes/control bytes defensively.
func jsonEscape(w *bufio.Writer, s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			w.WriteByte('\\')
			w.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(w, "\\u%04x", c)
		default:
			w.WriteByte(c)
		}
	}
}

// writeTS renders nanos as Chrome-trace microseconds with exactly
// three decimals, in pure integer math (float formatting would invite
// platform drift into byte-compared output).
func writeTS(w *bufio.Writer, nanos int64) {
	neg := nanos < 0
	if neg {
		nanos = -nanos
		w.WriteByte('-')
	}
	fmt.Fprintf(w, "%d.%03d", nanos/1000, nanos%1000)
}

// WriteChrome writes the whole trace as Chrome trace-event JSON —
// loadable in Perfetto / chrome://tracing. Layout: each cell is a
// process (pid = cell index) whose threads are the cell's tracks;
// drops, marks, retransmits, ladder switches, flaps and pool events
// are instant events; series render as counter tracks; the cell span
// is one complete event on the lane track. Cells and tracks are
// emitted in recording order and instants in timestamp order (stable,
// so ties keep recording order), so output bytes are a pure function
// of the per-cell simulations.
func (t *Trace) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	t.mu.Lock()
	cells := append([]*Recorder(nil), t.cells...)
	t.mu.Unlock()
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
	}
	for pid, r := range cells {
		if r == nil {
			continue
		}
		r.mu.Lock()
		// Process metadata: "<trace label>/<cell label>".
		sep()
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":"`, pid)
		jsonEscape(bw, t.label)
		bw.WriteByte('/')
		jsonEscape(bw, r.label)
		bw.WriteString(`"}}`)
		sep()
		fmt.Fprintf(bw, `{"name":"process_sort_index","ph":"M","pid":%d,"args":{"sort_index":%d}}`, pid, pid)
		for tid, name := range r.tracks {
			sep()
			fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"`, pid, tid)
			jsonEscape(bw, name)
			bw.WriteString(`"}}`)
		}
		// Cell span.
		if r.span > 0 {
			sep()
			fmt.Fprintf(bw, `{"name":"cell","ph":"X","pid":%d,"tid":0,"ts":0.000,"dur":`, pid)
			writeTS(bw, r.span)
			bw.WriteString(`,"args":{}}`)
		}
		// Instants in time order: a netem queue settles a departure
		// after the fact, so its probe can follow later events of other
		// tracks in the slab. The sort is stable, so events at one
		// timestamp keep their recording order.
		evs := slices.Clone(r.events)
		slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
		for i := range evs {
			ev := &evs[i]
			sep()
			bw.WriteString(`{"name":"`)
			bw.WriteString(ev.Kind.String())
			fmt.Fprintf(bw, `","ph":"i","s":"t","pid":%d,"tid":%d,"ts":`, pid, ev.Track)
			writeTS(bw, ev.At-r.base)
			bw.WriteString(`,"args":{`)
			args := kindArgs[ev.Kind]
			vals := [4]int64{ev.A0, ev.A1, ev.A2, ev.A3}
			firstArg := true
			for j, key := range args {
				if key == "" {
					continue
				}
				if !firstArg {
					bw.WriteByte(',')
				}
				firstArg = false
				fmt.Fprintf(bw, `"%s":%d`, key, vals[j])
			}
			if ev.Actor >= 0 {
				if !firstArg {
					bw.WriteByte(',')
				}
				bw.WriteString(`"actor":"`)
				jsonEscape(bw, r.actors[ev.Actor])
				bw.WriteByte('"')
			}
			bw.WriteString(`}}`)
		}
		// Series as counter tracks (zero buckets skipped).
		for _, s := range r.series {
			s.mu.Lock()
			for i, v := range s.vals {
				if v == 0 {
					continue
				}
				sep()
				bw.WriteString(`{"name":"`)
				jsonEscape(bw, s.name)
				fmt.Fprintf(bw, `","ph":"C","pid":%d,"tid":%d,"ts":`, pid, s.track)
				writeTS(bw, s.base+int64(i)*s.bucket-r.base)
				fmt.Fprintf(bw, `,"args":{"v":%d}}`, v)
			}
			s.mu.Unlock()
		}
		r.mu.Unlock()
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteChromeFile writes the Chrome trace to path.
func (t *Trace) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Summary renders the deterministic text digest: per cell, the virtual
// span, event counts by kind, and every registered counter that fired.
func (t *Trace) Summary() string {
	var b strings.Builder
	t.mu.Lock()
	cells := append([]*Recorder(nil), t.cells...)
	t.mu.Unlock()
	fmt.Fprintf(&b, "trace %s: %d cell(s)\n", t.label, len(cells))
	for i, r := range cells {
		if r == nil {
			continue
		}
		r.mu.Lock()
		fmt.Fprintf(&b, "cell %d [%s]: %d event(s)", i, r.label, len(r.events))
		if r.span > 0 {
			fmt.Fprintf(&b, ", %v virtual", time.Duration(r.span))
		}
		if r.dropped > 0 {
			fmt.Fprintf(&b, ", %d DROPPED past the %d-event cap", r.dropped, r.maxEvents)
		}
		b.WriteString("\n")
		var kinds [kindCount]int
		for j := range r.events {
			kinds[r.events[j].Kind]++
		}
		line := false
		for k, n := range kinds {
			if n == 0 {
				continue
			}
			if !line {
				b.WriteString("  events:")
				line = true
			}
			fmt.Fprintf(&b, " %s=%d", EventKind(k), n)
		}
		if line {
			b.WriteString("\n")
		}
		line = false
		for _, ce := range r.counters {
			v := ce.c.Load()
			if v == 0 {
				continue
			}
			if !line {
				b.WriteString("  counters:")
				line = true
			}
			fmt.Fprintf(&b, " %s=%d", ce.name, v)
		}
		if line {
			b.WriteString("\n")
		}
		r.mu.Unlock()
	}
	return b.String()
}
