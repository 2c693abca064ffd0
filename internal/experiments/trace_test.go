package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sdrrdma/internal/telemetry"
)

// renderTraced runs the adaptive figure with a flight recorder attached
// and returns the formatted table plus the exported trace bytes.
func renderTraced(t *testing.T, workers int) (string, []byte) {
	t.Helper()
	opts := quickOpts
	opts.SweepWorkers = workers
	opts.Trace = telemetry.NewTrace("adaptive-functional")
	res, err := Run("adaptive-functional", opts)
	if err != nil {
		t.Fatalf("adaptive-functional (workers=%d, traced): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := opts.Trace.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return res.Format(), buf.Bytes()
}

// The acceptance bar for the flight recorder: the adaptive figure's
// trace is valid Chrome trace-event JSON carrying the ladder switches,
// the fault-program flap and the congestion tail-drops, and the figure
// gains a decision-timeline note.
func TestAdaptiveTraceSmoke(t *testing.T) {
	table, trace := renderTraced(t, 0)
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	count := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" {
			count[e.Name]++
		}
	}
	for _, want := range []string{"ladder-switch", "link-down", "link-up", "tail-drop"} {
		if count[want] == 0 {
			t.Errorf("trace has no %q instants (instants seen: %v)", want, count)
		}
	}
	if !strings.Contains(table, "decision @") {
		t.Errorf("figure output carries no decision timeline:\n%s", table)
	}
	if !strings.Contains(table, "switch sr>") {
		t.Errorf("decision timeline records no SR->EC switch:\n%s", table)
	}
}

// The recorder must not weaken the sweep determinism guarantee: with a
// trace attached, both the figure bytes and the trace bytes are
// identical across worker counts and GOMAXPROCS.
func TestAdaptiveTraceByteIdentical(t *testing.T) {
	refTable, refTrace := renderTraced(t, 1)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4} {
			table, trace := renderTraced(t, workers)
			if table != refTable {
				t.Fatalf("workers=%d GOMAXPROCS=%d: figure output diverged", workers, procs)
			}
			if !bytes.Equal(trace, refTrace) {
				t.Fatalf("workers=%d GOMAXPROCS=%d: trace bytes diverged", workers, procs)
			}
		}
	}
}

// The adaptive figure's trace is pinned by SHA-256: a change to how
// netem settles its queues, or to what the stack probes, that claims to
// keep the simulation must leave these bytes alone. Instants export in
// timestamp order, so a probe settled after the fact lands where its
// instant falls.
func TestAdaptiveTraceGolden(t *testing.T) {
	_, trace := renderTraced(t, 1)
	const want = "9fb75609b99cdd43221ad677b202f673b0db61474ab726f2288b9c5b786cb0a1"
	if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != want {
		t.Fatalf("adaptive-functional trace SHA-256 = %s, want %s", got, want)
	}
}
