// Package chaos is the deterministic fault-program fuzzer of the
// robustness suite: from a single seed it derives hundreds of
// adversarial scenarios — link flaps, permanent link death, Gilbert–
// Elliott burst episodes, RTT drift, control-plane drop/duplication/
// corruption, receiver crashes and whole-session kills — and runs each
// against every reliability scheme on its own virtual clock, asserting
// the three failure-semantics invariants:
//
//  1. every transfer either completes with a byte-verified payload or
//     returns a typed error (ErrTimeout / ErrAborted / ErrPeerDead
//     cause chains) within a bounded multiple of GlobalTimeout;
//  2. the virtual clock never deadlocks — an all-blocked panic is
//     recovered into a counterexample report carrying the triggering
//     fault program;
//  3. after the faulted transfer the leased deployment either returns
//     to its session pool and a follow-up transfer on a clean network
//     completes byte-identically, or it is explicitly quarantined —
//     never silently poisoned.
//
// Every scenario is a pure function of (seed, index): the report is
// byte-identical across sweep-worker counts, so a violation elsewhere
// is reproducible from the printed program alone (see shrink).
package chaos

import (
	"fmt"
	"strings"
	"time"
)

// FaultKind enumerates the injectable fault classes. Link-level kinds
// compile to a netem.Schedule; endpoint kinds act on the flow under
// test — control-plane faults as interceptors on its link directions,
// crashes and kills on its endpoints.
type FaultKind uint8

const (
	// faultFlap takes one edge down for Dur, forcing a mid-transfer
	// reroute (the diamond topology always has a backup arm).
	faultFlap FaultKind = iota
	// faultLinkDeath blackholes the source: both of its uplinks go
	// down at At and stay down past the end of every transfer window
	// (they are only restored at the schedule horizon).
	faultLinkDeath
	// faultBurstLoss runs a Gilbert–Elliott loss episode on one edge
	// for Dur: Pct percent stationary loss with a multi-packet mean
	// burst length.
	faultBurstLoss
	// faultDrift recedes one edge at a constant rate for Dur — the
	// LEO-style RTT drift ramp.
	faultDrift
	// faultControlDrop drops Pct percent of one side's control-plane
	// packets (ACKs/NACKs) while active.
	faultControlDrop
	// faultControlDup duplicates Pct percent of one side's control-plane
	// packets while active.
	faultControlDup
	// faultControlCorrupt flips a byte in Pct percent of one side's
	// control-plane packets; the CRC32-C trailer must catch every one.
	faultControlCorrupt
	// faultCrashRecv aborts the receiver endpoint at At — a crashed
	// peer from the sender's point of view.
	faultCrashRecv
	// faultKillSession aborts both endpoints at At — deployment kill.
	faultKillSession

	faultKindCount
)

var faultNames = [faultKindCount]string{
	"flap", "link-death", "burst-loss", "drift",
	"ctrl-drop", "ctrl-dup", "ctrl-corrupt",
	"crash-recv", "kill-session",
}

func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault is one injected failure. The fields are overloaded per kind:
// Edge indexes the diamond's edges for link faults and selects the
// side (0 = A/sender, 1 = B/receiver) for control-plane faults; Pct is
// the loss/drop/dup/corrupt percentage for stochastic kinds and the
// drift-rate scale for faultDrift.
type Fault struct {
	Kind FaultKind
	Edge int
	At   time.Duration
	Dur  time.Duration
	Pct  int
}

func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", f.Kind)
	switch f.Kind {
	case faultCrashRecv, faultKillSession:
		fmt.Fprintf(&b, "@%v", f.At)
	case faultControlDrop, faultControlDup, faultControlCorrupt:
		side := "A"
		if f.Edge != 0 {
			side = "B"
		}
		fmt.Fprintf(&b, "cp%s,@%v,+%v,%d%%", side, f.At, f.Dur, f.Pct)
	case faultLinkDeath:
		fmt.Fprintf(&b, "@%v", f.At)
	default:
		fmt.Fprintf(&b, "e%d,@%v,+%v", f.Edge, f.At, f.Dur)
		if f.Pct != 0 {
			fmt.Fprintf(&b, ",%d%%", f.Pct)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Scheme names match the sdr-experiments figure vocabulary.
const (
	schemeSR       = "sr"
	schemeSRNACK   = "sr-nack"
	schemeEC       = "ec"
	schemeRCGBN    = "rc-gbn"
	schemeAdaptive = "adaptive"
)

// Schemes lists every reliability scheme the harness drives, in the
// order generate cycles through them.
var Schemes = []string{schemeSR, schemeSRNACK, schemeEC, schemeAdaptive, schemeRCGBN}

// Program is one complete fuzz scenario: a scheme, a transfer size,
// and a composed fault list, all derived deterministically from
// (seed, index) by generate.
type Program struct {
	Seed   uint64
	Index  int
	Scheme string
	Size   int
	Faults []Fault
}

func (p Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %dKiB", p.Scheme, p.Size>>10)
	if len(p.Faults) == 0 {
		b.WriteString(" clean")
	}
	for _, f := range p.Faults {
		b.WriteByte(' ')
		b.WriteString(f.String())
	}
	return b.String()
}

// rng is a SplitMix64 stream — the same generator the clock lanes use
// for cell seeds, kept local so chaos derivations never shift when
// other packages evolve.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) dur(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(r.next()%uint64(hi-lo+1))
}

// splitAt hashes (stream, n) — the per-packet coin of the control-
// plane fault closures, stateless so a duplicated call order cannot
// perturb later draws.
func splitAt(stream, n uint64) uint64 {
	r := rng{s: stream ^ (n * 0x2545f4914f6cdd1d)}
	return r.next()
}

// Scenario timing. All virtual: the diamond's 300 km arms give a
// 4 ms route RTT, so the 120 ms global timeout leaves room for
// several full backoff rounds while keeping dead-peer scenarios
// cheap; the horizon bounds every fault window with slack for
// link-death restoration.
const (
	// globalTimeout is the per-operation abort deadline every chaos
	// flow runs with (reliability.Config.GlobalTimeout).
	globalTimeout = 120 * time.Millisecond
	// horizon bounds every fault program; link-death edges are
	// restored exactly here.
	horizon = 250 * time.Millisecond

	// Transfers on the healthy diamond complete in 4–10 ms, so fault
	// activations draw from [0, 6 ms] — inside the CTS exchange and
	// data flight of every size class, not after the fact.
	maxFaultAt  = 6 * time.Millisecond
	minFaultDur = 5 * time.Millisecond
	maxFaultDur = 40 * time.Millisecond
)

// sizes are the transfer sizes generate draws from (all within the
// 1 MiB message budget of the chaos core config).
var sizes = [...]int{16 << 10, 64 << 10, 256 << 10}

// generate derives scenario i of a seed's fuzz corpus: scheme chosen
// round-robin (so any contiguous run of len(Schemes) scenarios covers
// every scheme), size and 1–3 composed faults drawn from the
// scenario's own SplitMix64 stream. rc-gbn scenarios only receive
// link-level faults — the baseline has no control plane or session to
// fault. Pure: same (seed, i) → same Program, regardless of worker
// count or call order.
func generate(seed uint64, i int) Program {
	r := rng{s: seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15}
	p := Program{
		Seed:   seed,
		Index:  i,
		Scheme: Schemes[i%len(Schemes)],
		Size:   sizes[r.intn(len(sizes))],
	}
	linkOnly := p.Scheme == schemeRCGBN
	n := 1 + r.intn(3)
	for len(p.Faults) < n {
		var f Fault
		if linkOnly {
			f.Kind = FaultKind(r.intn(int(faultDrift) + 1))
		} else {
			f.Kind = FaultKind(r.intn(int(faultKindCount)))
		}
		f.At = r.dur(0, maxFaultAt)
		f.Dur = r.dur(minFaultDur, maxFaultDur)
		switch f.Kind {
		case faultFlap:
			f.Edge = r.intn(4)
		case faultLinkDeath:
			// At most one blackhole per program: a second adds nothing
			// and would push the restore bookkeeping past the horizon.
			if hasKind(p.Faults, faultLinkDeath) {
				continue
			}
		case faultBurstLoss:
			f.Edge = r.intn(4)
			f.Pct = 5 + r.intn(25)
		case faultDrift:
			f.Edge = r.intn(4)
			f.Pct = 1 + r.intn(5) // ×1000 km/s rate scale
		case faultControlDrop, faultControlDup, faultControlCorrupt:
			f.Edge = r.intn(2) // side selector
			f.Pct = 10 + r.intn(60)
		case faultCrashRecv, faultKillSession:
			f.Dur = 0
			// One endpoint kill per program: aborts are first-wins, so
			// stacking them only shadows the earlier cause.
			if hasKind(p.Faults, faultCrashRecv) || hasKind(p.Faults, faultKillSession) {
				continue
			}
		}
		p.Faults = append(p.Faults, f)
	}
	return p
}

func hasKind(fs []Fault, k FaultKind) bool {
	for _, f := range fs {
		if f.Kind == k {
			return true
		}
	}
	return false
}
