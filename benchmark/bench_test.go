package main

import (
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

// toy is the run shape of the tests: every workload, a handful of
// messages, rep counts fixed instead of time-budgeted.
func toy(traced bool) runOpts {
	return runOpts{seed: 1, minReps: 2, setupSamples: 1, traced: traced, msgs: 4, driveScale: 0.01}
}

func declared(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json must be exactly what -manifest prints.
func TestManifestMatchesFile(t *testing.T) {
	if got, want := declared(t), buildManifest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`\n got %+v\nwant %+v", got, want)
	}
}

// The metrics a run emits are the declared ones, in both directions,
// with the declared units; and the workload separation the benchmark is
// built on is visible in the numbers.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	m := declared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is malformed", d.Name)
			}
			out = append(out, d.Name)
		}
		slices.Sort(out)
		return out
	}
	emitted := func(r *workloadRun) []string {
		var res struct {
			Correct bool
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(r.resultLine()), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s: not correct: %v", r.w.name, r.problems)
		}
		return slices.Sorted(maps.Keys(res.Metrics))
	}

	layer := map[string]map[string]float64{}
	e2e := map[string]map[string]float64{}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the program", i, m.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			run, err := runWorkload(w, toy(traced))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			want := names(m.EndToEnd)
			if traced {
				want = names(m.PerLayer)
				layer[w.name] = run.perLayerValues()
			} else {
				e2e[w.name] = run.endToEndValues()
			}
			if got := emitted(run); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: emitted metrics %v, declared %v", w.name, traced, got, want)
			}
		}
		for name, v := range e2e[w.name] {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v)
			}
		}
	}

	sr, ecw, adaptive, churn := layer["sr_clean"], layer["wan_ec"], layer["contended_adaptive"], layer["flow_churn"]
	for _, name := range []string{"reliability.retransmits", "fabric.dropped_pkts", "netem.enqueued_pkts", "ledger.ec_share"} {
		if sr[name] != 0 {
			t.Errorf("sr_clean: %s = %v, want 0", name, sr[name])
		}
	}
	for _, d := range ledgerMetrics {
		if d.Name != "ledger.ec_share" && d.Name != "ledger.unattributed_share" && ecw[d.Name] >= ecw["ledger.ec_share"] {
			t.Errorf("wan_ec: %s = %v is not below ledger.ec_share = %v", d.Name, ecw[d.Name], ecw["ledger.ec_share"])
		}
	}
	if ec, srn := e2e["wan_ec"]["sim_completion_rtts_p50"], e2e["wan_sr_nack"]["sim_completion_rtts_p50"]; ec >= srn {
		t.Errorf("EC p50 completion %v rtt is not below SR-NACK's %v on the same lossy link", ec, srn)
	}
	if adaptive["netem.enqueued_pkts"] <= 3*adaptive["nicsim.rx_pkts"] || adaptive["netem.tail_drops"] == 0 || adaptive["reliability.ladder_switches"] == 0 {
		t.Errorf("contended_adaptive: enqueued %v vs rx %v, tail drops %v, ladder switches %v",
			adaptive["netem.enqueued_pkts"], adaptive["nicsim.rx_pkts"], adaptive["netem.tail_drops"], adaptive["reliability.ladder_switches"])
	}
	if churn["session.deployments_built"] != 1 || churn["session.leases"] != float64(toy(true).msgs) {
		t.Errorf("flow_churn: built %v deployments for %v leases, want 1 for %d",
			churn["session.deployments_built"], churn["session.leases"], toy(true).msgs)
	}
}

// The same seed reproduces the simulation exactly; another seed changes
// it wherever the workload draws randomness.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		w.msgs = toy(false).msgs
		rep := func(seed int64) repResult {
			res := w.rep(newStaging(w, seed), seed, 0, true, nil)
			if res.err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, res.err)
			}
			return res
		}
		a, b, other := rep(1), rep(1), rep(2)
		if a.tuple != b.tuple || !maps.Equal(a.counts, b.counts) || !slices.Equal(a.completions, b.completions) || a.digest != b.digest {
			t.Errorf("%s: seed 1 twice gave different simulations: %+v vs %+v", w.name, a.tuple, b.tuple)
		}
		lossy := w.drop > 0
		if changed := !slices.Equal(a.completions, other.completions); changed != lossy {
			t.Errorf("%s: completions changed with the seed = %v, want %v", w.name, changed, lossy)
		}
		if a.digest == other.digest {
			t.Errorf("%s: payload digest does not depend on the seed", w.name)
		}
	}
}
