package experiments

import (
	"fmt"
	"slices"
	"strings"

	"sdrrdma/internal/chaos"
	"sdrrdma/internal/clock"
)

// chaosFunctional is the survivability figure of the robustness suite:
// it runs the deterministic chaos corpus (internal/chaos) — composed
// link flaps, blackholes, burst-loss episodes, RTT drift, control-
// plane drop/duplication/corruption, receiver crashes and session
// kills — across every reliability scheme and tabulates, per scheme,
// how transfers ended: byte-verified completion, typed timeout /
// abort / dead-peer errors, quarantined leases, pool reuses, and
// invariant violations (always zero on a healthy build; a non-zero
// count prints the triggering fault programs in the notes). The corpus
// runs as its own clock.Lanes sweep before the cells, which only format
// it.
func chaosFunctional(o Options) (sweep, error) {
	const scenarios = 100
	rep := chaos.Run(uint64(o.Seed), scenarios, o.SweepWorkers)

	type tally struct {
		n, ok, timeout, aborted, peerDead, untyped int
		reused, quarantined                        int
		violations                                 int
	}
	per := make([]tally, len(chaos.Schemes))
	for _, out := range rep.Outcomes {
		i := slices.Index(chaos.Schemes, out.Program.Scheme)
		if i < 0 {
			continue
		}
		t := &per[i]
		t.n++
		// A transfer survives iff both sides completed; otherwise the
		// sender's classification names the failure (falling back to
		// the receiver's when the sender finished clean).
		class := out.Send
		if class == "ok" {
			class = out.Recv
		}
		switch class {
		case "ok":
			t.ok++
		case "timeout":
			t.timeout++
		case "aborted":
			t.aborted++
		case "peer-dead":
			t.peerDead++
		default:
			t.untyped++
		}
		switch out.FollowUp {
		case "ok-reused":
			t.reused++
		case "ok-cold":
			t.quarantined++
		}
		t.violations += len(out.Violations)
	}

	var notes []string
	if n := rep.NumViolations(); n > 0 {
		notes = append(notes, fmt.Sprintf("%d INVARIANT VIOLATION(S):", n))
		for _, out := range rep.Counterexamples() {
			notes = append(notes, fmt.Sprintf("  scenario %d [%s]: %s",
				out.Index, out.Program, strings.Join(out.Violations, "; ")))
		}
	}
	return sweep{
		labels: labelsOf(chaos.Schemes, func(s string) string { return s }),
		title:  fmt.Sprintf(", %d fault programs (seed %d)", scenarios, o.Seed),
		notes:  notes,
		cell: func(_ clock.Clock, r, _ int) ([]string, error) {
			t := per[r]
			return []string{
				fmt.Sprint(t.n), fmt.Sprint(t.ok), fmt.Sprint(t.timeout),
				fmt.Sprint(t.aborted), fmt.Sprint(t.peerDead), fmt.Sprint(t.untyped),
				fmt.Sprint(t.reused), fmt.Sprint(t.quarantined), fmt.Sprint(t.violations),
			}, nil
		},
	}, nil
}
