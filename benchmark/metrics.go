package main

import (
	"strings"

	"sdrrdma/internal/stats"
)

// metricDef declares one metric of BENCHMARK.json. Bound is the share
// of the parent's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the simulator sees. The sim_* metrics are
// simulated time: exact per seed, and on the lossless workloads the
// same for every seed. Their bounds have to absorb the spread across
// seeds, because the driver varies the seed between runs; for one seed
// the criterion is bit equality, which -selfcheck enforces.
// Completion times are given in path round trips rather than in ms so
// that a metric which legitimately never varies is not mistaken for a
// rounded wall-clock timing.
var endToEnd = []metricDef{
	{"host_goodput_MBps", "MB/s", higher, 0.25},
	{"sim_goodput_gbps", "Gbit/s", higher, 0.25},
	{"sim_completion_rtts_p50", "rtt", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// countMetrics are read from public counters after the verification
// rep; exact per seed.
var countMetrics = []metricDef{
	{Name: "nicsim.rx_pkts", Unit: "count", Better: lower},
	{Name: "nicsim.rx_drop_no_qp", Unit: "count", Better: lower},
	{Name: "dpa.cqes_processed", Unit: "count", Better: lower},
	{Name: "core.data_pkts_sent", Unit: "count", Better: lower},
	{Name: "core.data_pkts_recv", Unit: "count", Better: lower},
	{Name: "core.dup_pkts", Unit: "count", Better: lower},
	{Name: "core.late_discarded", Unit: "count", Better: lower},
	{Name: "core.cts_sent", Unit: "count", Better: lower},
	{Name: "fabric.tx_pkts", Unit: "count", Better: lower},
	{Name: "fabric.dropped_pkts", Unit: "count", Better: lower},
	{Name: "netem.enqueued_pkts", Unit: "count", Better: lower},
	{Name: "netem.delivered_pkts", Unit: "count", Better: lower},
	{Name: "netem.tail_drops", Unit: "count", Better: lower},
	{Name: "netem.channel_drops", Unit: "count", Better: lower},
	{Name: "netem.ecn_marked", Unit: "count", Better: lower},
	{Name: "netem.cross_pkts", Unit: "count", Better: lower},
	{Name: "netem.queue_hwm_bytes", Unit: "B", Better: lower},
	{Name: "reliability.retransmits", Unit: "count", Better: lower},
	{Name: "reliability.nacks_sent", Unit: "count", Better: lower},
	{Name: "reliability.late_reacks", Unit: "count", Better: lower},
	{Name: "reliability.ladder_switches", Unit: "count", Better: lower},
	{Name: "reliability.wire_overhead", Unit: "ratio", Better: lower},
	{Name: "reliability.useful_pkt_share", Unit: "share", Better: higher},
	{Name: "session.deployments_built", Unit: "count", Better: lower},
	{Name: "session.quarantined", Unit: "count", Better: lower},
	{Name: "session.leases", Unit: "count", Better: lower},
}

// hostMetrics are host time per workload: stack.* up to staging_fill_ms
// from the untraced reps, the rest from the traced run.
var hostMetrics = []metricDef{
	{Name: "stack.host_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "stack.host_pkts_per_s_core", Unit: "1/s", Better: higher},
	{Name: "stack.allocs_per_pkt", Unit: "count", Better: lower},
	{Name: "stack.alloc_bytes_per_pkt", Unit: "B", Better: lower},
	{Name: "stack.gc_cycles", Unit: "count", Better: lower},
	{Name: "stack.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "stack.staging_fill_ms", Unit: "ms", Better: lower},
	{Name: "stack.sim_completion_rtts_p90", Unit: "rtt", Better: lower},
	{Name: "stack.build_ms", Unit: "ms", Better: lower},
	{Name: "stack.regmr_ms", Unit: "ms", Better: lower},
	{Name: "stack.msg_host_us_p50", Unit: "us", Better: lower},
	{Name: "stack.msg_host_us_p90", Unit: "us", Better: lower},
	{Name: "nicsim.deliver_busy_share", Unit: "share", Better: lower},
	{Name: "nicsim.deliver_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "session.lease_us_p50", Unit: "us", Better: lower},
	{Name: "session.close_us_p50", Unit: "us", Better: lower},
	{Name: "trace.spans", Unit: "count", Better: lower},
	{Name: "trace.overhead_share", Unit: "share", Better: lower},
}

// ledgerMetrics are count × unit cost ÷ measured window host time.
var ledgerMetrics = []metricDef{
	{Name: "ledger.nicsim_share", Unit: "share", Better: lower},
	{Name: "ledger.fabric_share", Unit: "share", Better: lower},
	{Name: "ledger.netem_share", Unit: "share", Better: lower},
	{Name: "ledger.bitmap_share", Unit: "share", Better: lower},
	{Name: "ledger.ec_share", Unit: "share", Better: lower},
	{Name: "ledger.session_share", Unit: "share", Better: lower},
	{Name: "ledger.unattributed_share", Unit: "share", Better: lower},
}

// perLayer lists every per-layer metric: unit-cost drives first, then
// counts, host time and the ledger.
func perLayer() []metricDef {
	var out []metricDef
	for _, d := range drives {
		unit := "ns"
		if strings.HasSuffix(d.name, "_per_KiB") {
			unit = "ns/KiB"
		}
		out = append(out, metricDef{Name: d.name, Unit: unit, Better: lower})
		if d.allocs {
			out = append(out, metricDef{Name: allocsName(d.name), Unit: "count", Better: lower})
		}
	}
	out = append(out, countMetrics...)
	out = append(out, hostMetrics...)
	return append(out, ledgerMetrics...)
}

// manifest is the content of BENCHMARK.json, generated from the tables
// above by -manifest so the file and the program cannot drift apart.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 18

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDecl{w.name, w.why})
	}
	return m
}

// --- small statistics -------------------------------------------------------

// percentile is stats.PercentileUnsorted (linear interpolation between
// closest ranks), 0 on an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.PercentileUnsorted(xs, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func floats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
