package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"time"
)

// runOpts is the run shape. Rep counts follow from seconds: reps run
// until the budget is spent, and at least minReps of them.
type runOpts struct {
	seed    int64
	seconds float64
	minReps int
	// setupSamples is how many one-message reps follow every timed rep
	// only to time their set-up. A set-up takes about a millisecond, so
	// the timed reps' own are too few to carry setup_s; taking the
	// samples between reps spreads them over the whole run.
	setupSamples int
	// traced selects the per-layer run: half the budget goes to untraced
	// reps, half to traced ones, then the unit-cost drives run.
	traced bool
	// msgs, when positive, overrides the workload's messages per rep and
	// driveScale shrinks the drive batches; both exist for the toy-scale
	// test.
	msgs       int
	driveScale float64
}

// workloadRun is everything measured on one workload.
type workloadRun struct {
	w      workload
	o      runOpts
	fillNs int64
	// ver is rep 0: verification on, untimed, and the warm-up. Its
	// simulated tuple is the reference for every later rep.
	ver           repResult
	timed, traced []repResult
	// setupNs are the set-up times of the set-up sample reps.
	setupNs []float64
	tr      *tracer
	drives  map[string]float64
	// layerVals caches perLayerValues, which sorts every span duration.
	layerVals map[string]float64
	// attempted and failed count transfers: one that returned an error,
	// failed verification, or sat in a rep whose tuple diverged, failed.
	attempted, failed int
	problems          []string
}

func runWorkload(w workload, o runOpts) (*workloadRun, error) {
	if o.msgs > 0 {
		w.msgs = o.msgs
	}
	r := &workloadRun{w: w, o: o}
	st := newStaging(w, o.seed)
	r.fillNs = st.fillNs
	r.ver = w.rep(st, o.seed, 0, true, nil)
	r.account(r.ver, w.msgs, false)
	if r.ver.err != nil {
		return r, nil
	}
	budget := o.seconds
	if o.traced {
		budget /= 2
	}
	r.timed = r.reps(st, budget, 1, nil)
	if o.traced {
		r.tr = newTracer()
		r.traced = r.reps(st, budget, 1+len(r.timed), r.tr)
		var err error
		if r.drives, err = runDrives(o.driveScale); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// reps runs timed reps (traced when tr is set) until budget host
// seconds are spent, stopping early on a failed rep.
func (r *workloadRun) reps(st *staging, budget float64, firstIdx int, tr *tracer) []repResult {
	var out []repResult
	start := time.Now()
	for len(out) < r.o.minReps || time.Since(start).Seconds() < budget {
		res := r.w.rep(st, r.o.seed, firstIdx+len(out), false, tr)
		r.account(res, r.w.msgs, true)
		out = append(out, res)
		if res.err != nil {
			break
		}
		if !r.o.traced {
			one := r.w
			one.msgs = 1
			for i := 0; i < r.o.setupSamples && r.correct(); i++ {
				res := one.rep(st, r.o.seed, -1, false, nil)
				r.account(res, 1, false)
				r.setupNs = append(r.setupNs, float64(res.setupNs))
			}
		}
	}
	return out
}

// account books a rep's msgs transfers. checkTuple marks a full rep,
// which must reproduce the verification rep's simulated tuple.
func (r *workloadRun) account(res repResult, msgs int, checkTuple bool) {
	r.attempted += msgs
	switch {
	case res.err != nil:
		r.failed += msgs
		r.problems = append(r.problems, res.err.Error())
	case checkTuple && res.tuple != r.ver.tuple:
		r.failed += msgs
		r.problems = append(r.problems, fmt.Sprintf(
			"simulated tuple %+v diverged from the verification rep's %+v", res.tuple, r.ver.tuple))
	}
}

func (r *workloadRun) correct() bool { return r.failed == 0 }

func (r *workloadRun) payloadBytes() float64 { return float64(r.w.msgs) * float64(r.w.size) }

// over maps reps through f.
func over(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, rep := range reps {
		out[i] = f(rep)
	}
	return out
}

func (r *workloadRun) hostGoodputs() []float64 {
	return over(r.timed, func(t repResult) float64 { return r.payloadBytes() / float64(t.windowNs) * 1e3 })
}

func windowsNs(reps []repResult) []float64 {
	return over(reps, func(t repResult) float64 { return float64(t.windowNs) })
}

// endToEndValues computes the end-to-end metrics. Simulated ones come
// from the verification rep: every other rep reproduced them exactly,
// or counted as failed. That also means every timed rep did the same
// work to the bit, so the spread between reps is the host's alone; on a
// shared box it comes as slow phases tens of seconds long, and the
// fastest rep is the estimate of the code's cost they contaminate
// least. The report prints the quartiles beside it.
func (r *workloadRun) endToEndValues() map[string]float64 {
	rtt := float64(r.w.pathRTT())
	comp := floats(r.ver.completions)
	return map[string]float64{
		"host_goodput_MBps":       slices.Max(r.hostGoodputs()),
		"sim_goodput_gbps":        r.payloadBytes() * 8 / float64(max(r.ver.tuple.SimNs, 1)),
		"sim_completion_rtts_p50": percentile(comp, 50) / rtt,
		"setup_s":                 median(r.setupNs) / 1e9,
	}
}

// perLayerValues computes every per-layer metric of a traced run.
func (r *workloadRun) perLayerValues() map[string]float64 {
	out := maps.Clone(r.drives)
	c := r.ver.counts
	for _, m := range countMetrics {
		out[m.Name] = c[m.Name]
	}
	out["reliability.wire_overhead"] = c["core.data_pkts_sent"] * mtu / r.payloadBytes()
	out["reliability.useful_pkt_share"] = 1 - c["core.dup_pkts"]/max(c["core.data_pkts_recv"], 1)

	// Host time of the whole path, from the fastest untraced rep. Packets
	// are device receives, data and control, both directions, as
	// sdr-perftest counts them; one core, because the virtual clock runs
	// one goroutine at a time.
	pkts := max(c["nicsim.rx_pkts"], 1)
	win := slices.Min(windowsNs(r.timed))
	med := func(reps []repResult, f func(repResult) float64) float64 { return median(over(reps, f)) }
	out["stack.host_ns_per_pkt"] = win / pkts
	out["stack.host_pkts_per_s_core"] = pkts / win * 1e9
	out["stack.allocs_per_pkt"] = med(r.timed, func(t repResult) float64 { return float64(t.mallocs) }) / pkts
	out["stack.alloc_bytes_per_pkt"] = med(r.timed, func(t repResult) float64 { return float64(t.allocBytes) }) / pkts
	out["stack.gc_cycles"] = med(r.timed, func(t repResult) float64 { return float64(t.gcCycles) })
	out["stack.gc_pause_ms"] = med(r.timed, func(t repResult) float64 { return float64(t.gcPauseNs) }) / 1e6
	out["stack.staging_fill_ms"] = float64(r.fillNs) / 1e6
	out["stack.sim_completion_rtts_p90"] = percentile(floats(r.ver.completions), 90) / float64(r.w.pathRTT())

	// Traced run.
	out["stack.build_ms"] = med(r.traced, func(t repResult) float64 { return float64(t.buildNs) }) / 1e6
	out["stack.regmr_ms"] = med(r.traced, func(t repResult) float64 { return float64(t.regmrNs) }) / 1e6
	msgHost := r.tr.durations("msg.recv")
	out["stack.msg_host_us_p50"] = percentile(msgHost, 50) / 1e3
	out["stack.msg_host_us_p90"] = percentile(msgHost, 90) / 1e3
	var deliverPkts, deliverBusy, tracedWin float64
	for i := range r.tr.spans {
		deliverPkts += float64(r.tr.spans[i].Pkts)
		deliverBusy += float64(r.tr.spans[i].BusyNs)
	}
	for _, t := range r.traced {
		tracedWin += float64(t.windowNs)
	}
	out["nicsim.deliver_busy_share"] = deliverBusy / tracedWin
	out["nicsim.deliver_ns_per_pkt"] = deliverBusy / max(deliverPkts, 1)
	out["session.lease_us_p50"] = percentile(r.tr.durations("session.lease"), 50) / 1e3
	out["session.close_us_p50"] = percentile(r.tr.durations("session.close"), 50) / 1e3
	out["trace.spans"] = float64(len(r.tr.spans))
	out["trace.overhead_share"] = slices.Min(windowsNs(r.traced))/win - 1

	// Ledger: count × unit cost ÷ window host time, fastest batch over
	// fastest rep.
	share := func(count float64, unitCost string) float64 { return count * r.drives[unitCost] / win }
	ledger := map[string]float64{
		"ledger.nicsim_share":  share(c["nicsim.rx_pkts"], "nicsim.uc_deliver_ns"),
		"ledger.netem_share":   share(c["netem.enqueued_pkts"], "netem.queue_pkt_ns"),
		"ledger.bitmap_share":  share(c["core.data_pkts_recv"], "bitmap.mark_packet_ns"),
		"ledger.ec_share":      share(r.ver.ecKiB, "ec.encode_ns_per_KiB"),
		"ledger.session_share": share(c["session.leases"], "session.lease_ns"),
		"ledger.fabric_share":  0,
	}
	if !r.w.netemPath() {
		// A netem flow's fabric Directions are pass-throughs (no latency,
		// no serialisation booking); the drive's cost does not apply.
		ledger["ledger.fabric_share"] = share(c["fabric.tx_pkts"], "fabric.send_deliver_ns")
	}
	unattributed := 1.0
	for name, v := range ledger {
		out[name] = v
		unattributed -= v
	}
	out["ledger.unattributed_share"] = unattributed
	return out
}

// values returns the metrics this run reports, with their declarations.
func (r *workloadRun) values() (map[string]float64, []metricDef) {
	if r.o.traced {
		if r.layerVals == nil {
			r.layerVals = r.perLayerValues()
		}
		return r.layerVals, perLayer()
	}
	return r.endToEndValues(), endToEnd
}

// resultLine is the one-line JSON result the driver reads.
func (r *workloadRun) resultLine() string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]metric{}}
	if len(r.timed) > 0 {
		vals, defs := r.values()
		for _, m := range defs {
			res.Metrics[m.Name] = metric{vals[m.Name], m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // only a NaN or Inf metric can do this: a bug in this file
	}
	return string(line)
}

// report prints the run for a reader.
func (r *workloadRun) report(out io.Writer) {
	w := r.w
	fmt.Fprintf(out, "\n== %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "   %d msgs × %d B per rep; reps: 1 verification + %d timed + %d traced\n",
		w.msgs, w.size, len(r.timed), len(r.traced))
	fmt.Fprintf(out, "   transfers: %d attempted, %d failed (share %.4g)\n",
		r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	for _, p := range r.problems {
		fmt.Fprintf(out, "   PROBLEM %s\n", p)
	}
	if len(r.timed) == 0 {
		return
	}
	t := r.ver.tuple
	fmt.Fprintf(out, "   verification rep: digest %016x; simulated tuple: %.6f ms, %d device rx pkts, %d data pkts, %d duplicates\n",
		r.ver.digest, float64(t.SimNs)/1e6, t.RxPkts, t.DataRecv, t.Dups)
	rtt := float64(w.pathRTT())
	comp := floats(r.ver.completions)
	fmt.Fprintf(out, "   sim completion (n=%d): p50 %.6f ms, p90 %.6f ms; path RTT %.3f ms\n",
		len(comp), percentile(comp, 50)/1e6, percentile(comp, 90)/1e6, rtt/1e6)
	for _, h := range []struct {
		name string
		xs   []float64
	}{{"host_goodput_MBps", r.hostGoodputs()}, {"set-up ns", r.setupNs}} {
		if len(h.xs) > 0 {
			fmt.Fprintf(out, "   %s over %d reps: min %.6g, q1 %.6g, median %.6g, q3 %.6g, max %.6g\n",
				h.name, len(h.xs), percentile(h.xs, 0), percentile(h.xs, 25), median(h.xs), percentile(h.xs, 75), percentile(h.xs, 100))
		}
	}
	vals, defs := r.values()
	for _, m := range defs {
		fmt.Fprintf(out, "   %-32s %16.6g %s\n", m.Name, vals[m.Name], m.Unit)
	}
}

// runSelfcheck runs the end-to-end set twice back to back and compares
// the two: host metrics may worsen by their bound, simulated metrics,
// counts and digests must be identical, and no transfer may fail.
func runSelfcheck(out io.Writer, selected []workload, o runOpts) bool {
	o.traced = false
	var sets [2][]*workloadRun
	for s := range sets {
		for _, w := range selected {
			run, err := runWorkload(w, o)
			if err != nil {
				fmt.Fprintf(out, "%s: %v\n", w.name, err)
				return false
			}
			run.report(out)
			sets[s] = append(sets[s], run)
		}
	}
	ok := true
	fmt.Fprintf(out, "\n%-20s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		if !a.correct() || !b.correct() {
			fmt.Fprintf(out, "%-20s transfers failed FAIL\n", a.w.name)
			ok = false
			continue
		}
		va, vb := a.endToEndValues(), b.endToEndValues()
		for _, m := range endToEnd {
			x, y := va[m.Name], vb[m.Name]
			worse := (y - x) / x
			if m.Better == higher {
				worse = -worse
			}
			bound, verdict := m.Bound, "ok"
			if strings.HasPrefix(m.Name, "sim_") {
				bound = 0 // same seed: simulated time must repeat exactly
			}
			if worse > bound || (bound == 0 && x != y) {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(out, "%-20s %-26s %14.6g %14.6g %8.2f%% %6.0f%% %s\n",
				a.w.name, m.Name, x, y, worse*100, bound*100, verdict)
		}
		if !maps.Equal(a.ver.counts, b.ver.counts) || a.ver.digest != b.ver.digest {
			fmt.Fprintf(out, "%-20s counts or digest differ between the two sets FAIL\n", a.w.name)
			ok = false
		}
	}
	return ok
}
