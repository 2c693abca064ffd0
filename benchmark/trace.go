package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"sdrrdma/internal/nicsim"
)

// span is one traced interval on the host clock. Spans are recorded by
// the benchmark around its calls into the layers, never inside them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// Rep and Msg are the request identifier; Msg is -1 on spans that
	// belong to the whole rep.
	Rep   int   `json:"rep"`
	Msg   int   `json:"msg"`
	Start int64 `json:"start_ns"` // since the tracer was created
	End   int64 `json:"end_ns"`
	// Pkts and BusyNs fold the per-packet delivery spans that ran under
	// this span (msg.recv, or window for packets between messages).
	Pkts   int64 `json:"deliver_pkts,omitempty"`
	BusyNs int64 `json:"deliver_busy_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. It needs no lock:
// every caller runs under the virtual clock's scheduler baton or on the
// goroutine driving the rep, one at a time.
type tracer struct {
	t0    time.Time
	spans []span
	// cur is the span deliveries are folded into.
	cur int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; a nil tracer records nothing.
func (t *tracer) begin(parent int, name string, rep, msg int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Rep: rep, Msg: msg,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// fold directs subsequent deliveries into span id.
func (t *tracer) fold(id int) {
	if t != nil {
		t.cur = id
	}
}

// wrap returns the timing Deliverer the traced fabric-path deployment
// puts in front of dev. Its time is inclusive of the dpa → core →
// reliability sink chain, which runs inline in Device.Deliver.
func (t *tracer) wrap(dev *nicsim.Device) nicsim.Deliverer {
	return &timedDevice{dev: dev, t: t}
}

type timedDevice struct {
	dev *nicsim.Device
	t   *tracer
}

func (d *timedDevice) Deliver(p *nicsim.Packet) {
	start := time.Now()
	d.dev.Deliver(p)
	if cur := d.t.cur; cur > 0 {
		s := &d.t.spans[cur-1]
		s.Pkts++
		s.BusyNs += time.Since(start).Nanoseconds()
	}
}

// durations returns the host nanoseconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].End-t.spans[i].Start))
		}
	}
	return out
}

// writeJSONL writes the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
