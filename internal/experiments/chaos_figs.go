package experiments

import (
	"fmt"
	"strings"

	"sdrrdma/internal/chaos"
)

func init() {
	registry["chaos-functional"] = chaosFunctional
}

// chaosFunctional is the survivability figure of the robustness suite:
// it runs the deterministic chaos corpus (internal/chaos) — composed
// link flaps, blackholes, burst-loss episodes, RTT drift, control-
// plane drop/duplication/corruption, receiver crashes and session
// kills — across every reliability scheme and tabulates, per scheme,
// how transfers ended: byte-verified completion, typed timeout /
// abort / dead-peer errors, quarantined leases, pool reuses, and
// invariant violations (always zero on a healthy build; a non-zero
// count prints the triggering fault programs in the notes).
func chaosFunctional(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	const scenarios = 100
	rep := chaos.Run(uint64(opts.Seed), scenarios, opts.SweepWorkers)

	type row struct {
		n, ok, timeout, aborted, peerDead, untyped int
		reused, quarantined                        int
		violations                                 int
	}
	per := map[string]*row{}
	for _, s := range chaos.Schemes {
		per[s] = &row{}
	}
	count := func(r *row, class string) {
		switch {
		case class == "ok":
			r.ok++
		case class == "timeout":
			r.timeout++
		case class == "aborted":
			r.aborted++
		case class == "peer-dead":
			r.peerDead++
		default:
			r.untyped++
		}
	}
	for _, o := range rep.Outcomes {
		r := per[o.Program.Scheme]
		if r == nil {
			continue
		}
		r.n++
		// A transfer survives iff both sides completed; otherwise the
		// sender's classification names the failure (falling back to
		// the receiver's when the sender finished clean).
		class := o.Send
		if class == "ok" {
			class = o.Recv
		}
		count(r, class)
		switch o.FollowUp {
		case "ok-reused":
			r.reused++
		case "ok-cold":
			r.quarantined++
		}
		r.violations += len(o.Violations)
	}

	res := &Result{
		Name:  "chaos-functional",
		Title: fmt.Sprintf("failure-semantics survivability, %d fault programs (seed %d)", scenarios, opts.Seed),
		Header: []string{"scheme", "scenarios", "completed", "timeout", "aborted",
			"peer-dead", "untyped", "reused", "quarantined", "violations"},
	}
	for _, s := range chaos.Schemes {
		r := per[s]
		res.Rows = append(res.Rows, []string{
			s, fmt.Sprint(r.n), fmt.Sprint(r.ok), fmt.Sprint(r.timeout),
			fmt.Sprint(r.aborted), fmt.Sprint(r.peerDead), fmt.Sprint(r.untyped),
			fmt.Sprint(r.reused), fmt.Sprint(r.quarantined), fmt.Sprint(r.violations),
		})
	}
	res.Notes = append(res.Notes,
		"every non-completed transfer returned a typed error (ErrTimeout/ErrAborted/ErrPeerDead) within the bound",
		"reused = lease returned to the session pool and re-leased clean; quarantined = lease retired, cold build verified")
	if n := rep.NumViolations(); n > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d INVARIANT VIOLATION(S):", n))
		for _, o := range rep.Counterexamples() {
			res.Notes = append(res.Notes, fmt.Sprintf("  scenario %d [%s]: %s",
				o.Index, o.Program, strings.Join(o.Violations, "; ")))
		}
	}
	return res, nil
}
