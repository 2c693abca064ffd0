package chaos

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
)

// The smoke seed is pinned: `make smoke-chaos` and CI run exactly this
// corpus, so a regression in the failure paths reproduces identically
// everywhere.
const smokeSeed = 0xC0FFEE

func TestGenerateIsPure(t *testing.T) {
	for i := 0; i < 64; i++ {
		a, b := generate(smokeSeed, i), generate(smokeSeed, i)
		if a.String() != b.String() {
			t.Fatalf("scenario %d not reproducible:\n%s\n%s", i, a, b)
		}
	}
	if generate(smokeSeed, 0).String() == generate(smokeSeed+1, 0).String() {
		t.Fatal("different seeds produced identical scenario 0")
	}
}

func TestGenerateCoversSchemes(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < len(Schemes); i++ {
		seen[generate(smokeSeed, i).Scheme] = true
	}
	for _, s := range Schemes {
		if !seen[s] {
			t.Fatalf("scheme %s not covered by %d consecutive scenarios", s, len(Schemes))
		}
	}
}

func TestGenerateRCGBNLinkFaultsOnly(t *testing.T) {
	for i := 0; i < 200; i++ {
		p := generate(smokeSeed, i)
		if p.Scheme != schemeRCGBN {
			continue
		}
		for _, f := range p.Faults {
			if f.Kind >= faultControlDrop { // the endpoint kinds
				t.Fatalf("scenario %d (rc-gbn) carries endpoint fault %s", i, f.Kind)
			}
		}
	}
}

// TestChaosSmoke is the tentpole gate: 50 seed-derived fault programs
// across all five schemes, zero invariant violations. On failure the
// counterexamples (triggering programs included) are printed.
func TestChaosSmoke(t *testing.T) {
	rep := Run(smokeSeed, 50, 4)
	if n := rep.NumViolations(); n != 0 {
		for _, o := range rep.Counterexamples() {
			t.Errorf("scenario %d [%s]: %v", o.Index, o.Program, o.Violations)
		}
		t.Fatalf("%d invariant violation(s) in 50 scenarios", n)
	}
	// The harness must actually exercise the failure paths: a corpus
	// where everything completes cleanly tests nothing.
	var okCount, errCount int
	for _, o := range rep.Outcomes {
		if o.Send == "ok" && o.Recv == "ok" {
			okCount++
		} else {
			errCount++
		}
	}
	if okCount == 0 {
		t.Fatal("no scenario completed — fault programs too hostile to discriminate")
	}
	if errCount == 0 {
		t.Fatal("no scenario failed — fault programs too gentle to test failure paths")
	}
}

// TestChaosWorkerDeterminism pins invariant 0 of the harness itself:
// the report is byte-identical across sweep-worker counts.
func TestChaosWorkerDeterminism(t *testing.T) {
	serial := Run(smokeSeed, 15, 1)
	parallel := Run(smokeSeed, 15, 4)
	if s, p := fmt.Sprintf("%+v", serial), fmt.Sprintf("%+v", parallel); s != p {
		t.Fatalf("report differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

// chaosCorpusGolden is the SHA-256 of the rendered outcomes of
// Run(1234, 300, 0): 300 programs, 135 of them with control-plane
// faults — a wider net than the chaos-functional identity line's 100
// programs of seed 42.
const chaosCorpusGolden = "a0fe31d467ee47213fd3972f8fbd17dfd7b3f3f704df3e0c3d05f7c2aa5d02ab"

// TestChaosCorpusGolden pins every outcome of a 300-program corpus,
// violations included. A change that claims to keep chaos's behaviour
// must pass with the literal untouched; a change meant to alter it
// re-records the literal and says why.
func TestChaosCorpusGolden(t *testing.T) {
	rep := Run(1234, 300, 0)
	h := sha256.New()
	ctrl := 0
	for _, o := range rep.Outcomes {
		// The digest covers the verdict, not DoneWrites: the rendering
		// is the outcome's %+v as it stood before that counter existed.
		verdict := struct {
			Index      int
			Program    Program
			Send, Recv string
			Elapsed    time.Duration
			FollowUp   string
			Violations []string
		}{o.Index, o.Program, o.Send, o.Recv, o.Elapsed, o.FollowUp, o.Violations}
		fmt.Fprintf(h, "%+v\n", verdict)
		for _, f := range o.Program.Faults {
			if f.Kind == faultControlDrop || f.Kind == faultControlDup || f.Kind == faultControlCorrupt {
				ctrl++
				break
			}
		}
	}
	if ctrl != 135 {
		t.Errorf("%d programs carry control-plane faults, want 135", ctrl)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != chaosCorpusGolden {
		t.Fatalf("chaos corpus digest %s, want %s", got, chaosCorpusGolden)
	}
}

// TestKillSessionTypedAbort pins the typed-error chain of a session
// kill: both sides unwind with ErrAborted, the lease is quarantined
// (never re-leased), and the cold follow-up runs clean.
func TestKillSessionTypedAbort(t *testing.T) {
	p := Program{
		Seed: 7, Index: 1, Scheme: schemeSRNACK, Size: 256 << 10,
		Faults: []Fault{{Kind: faultKillSession, At: 2 * time.Millisecond}},
	}
	o := runProgram(clock.NewVirtual(), p)
	if len(o.Violations) != 0 {
		t.Fatalf("violations: %v", o.Violations)
	}
	if o.Send != "aborted" || o.Recv != "aborted" {
		t.Fatalf("kill-session classified send=%s recv=%s, want aborted/aborted", o.Send, o.Recv)
	}
	if o.FollowUp != "ok-cold" {
		t.Fatalf("follow-up %q, want ok-cold (quarantined lease must not be re-leased)", o.FollowUp)
	}
}

// TestLinkDeathTimesOut pins the blackhole path: with both source
// uplinks dead early, the transfer must die with a typed timeout (or
// peer-dead, if the CTS never made it) instead of hanging.
func TestLinkDeathTimesOut(t *testing.T) {
	p := Program{
		Seed: 7, Index: 0, Scheme: schemeSR, Size: 256 << 10,
		Faults: []Fault{{Kind: faultLinkDeath, At: time.Millisecond}},
	}
	o := runProgram(clock.NewVirtual(), p)
	if len(o.Violations) != 0 {
		t.Fatalf("violations: %v", o.Violations)
	}
	for side, c := range map[string]string{"send": o.Send, "recv": o.Recv} {
		if c != "timeout" && c != "peer-dead" {
			t.Fatalf("%s classified %q, want timeout or peer-dead", side, c)
		}
	}
	if o.FollowUp != "ok-cold" {
		t.Fatalf("follow-up %q, want ok-cold", o.FollowUp)
	}
}

// TestCrashRecvSenderSurvives pins the crash-restart story: the
// receiver aborts mid-transfer, the sender unwinds with a typed error
// within GlobalTimeout, and the quarantined deployment's replacement
// serves a clean follow-up.
func TestCrashRecvSenderSurvives(t *testing.T) {
	p := Program{
		Seed: 7, Index: 2, Scheme: schemeEC, Size: 256 << 10,
		Faults: []Fault{{Kind: faultCrashRecv, At: 1 * time.Millisecond}},
	}
	o := runProgram(clock.NewVirtual(), p)
	if len(o.Violations) != 0 {
		t.Fatalf("violations: %v", o.Violations)
	}
	if o.Recv != "aborted" {
		t.Fatalf("crashed receiver classified %q, want aborted", o.Recv)
	}
	if o.Send == "ok" || strings.HasPrefix(o.Send, "UNTYPED") {
		t.Fatalf("sender against a dead peer classified %q, want a typed failure", o.Send)
	}
}

// TestPanickingSideIsUntypedViolation pins the per-side panic guard: a
// side that panics (here the receiver, inside its first control send,
// from the interceptor on the link direction that send leaves by)
// is recovered into an UNTYPED(panic: …) classification and an
// invariant-1 violation, the other side still unwinds typed, and the
// run goes on — the lease is quarantined and the follow-up flow on the
// same clock and topology runs clean — instead of taking the sweep's
// worker goroutine down.
func TestPanickingSideIsUntypedViolation(t *testing.T) {
	clk := clock.NewVirtual()
	topo, src, dst, err := diamond(clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := Program{Seed: 7, Index: 4, Scheme: schemeSRNACK, Size: 64 << 10}
	relCfg, err := reliability.Config{K: 4, M: 2, GlobalTimeout: globalTimeout}.ForScheme(p.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (*reliability.Session, error) { return topo.NewFlow(src, dst, chaosCoreCfg(), relCfg) }
	flow, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	flow.Pair.Link.BA.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if !fired && pkt.Opcode == nicsim.OpSend {
			fired = true
			panic("boom")
		}
		return fabric.Pass
	})
	o := Outcome{Program: p}
	judgeFlow(clk, topo, dial, flow, p, &o)
	if !fired {
		t.Fatal("the injected panic never fired")
	}
	if !strings.HasPrefix(o.Recv, "UNTYPED(panic: boom") {
		t.Fatalf("panicking receiver classified %q, want UNTYPED(panic: boom…)", o.Recv)
	}
	if o.Send == "ok" || strings.HasPrefix(o.Send, "UNTYPED") {
		t.Fatalf("sender against a panicked peer classified %q, want a typed failure", o.Send)
	}
	if len(o.Violations) != 1 || !strings.Contains(o.Violations[0], "receiver error outside the typed taxonomy") {
		t.Fatalf("violations %q, want exactly the receiver's untyped error", o.Violations)
	}
	if o.FollowUp != "ok-cold" {
		t.Fatalf("follow-up %q, want ok-cold", o.FollowUp)
	}
}

// TestCleanProgramCompletes: the no-fault control case must complete
// and return the lease to the pool.
func TestCleanProgramCompletes(t *testing.T) {
	for _, scheme := range Schemes {
		p := Program{Seed: 7, Index: 3, Scheme: scheme, Size: 64 << 10}
		o := runProgram(clock.NewVirtual(), p)
		if len(o.Violations) != 0 {
			t.Fatalf("%s: violations: %v", scheme, o.Violations)
		}
		if o.Send != "ok" || o.Recv != "ok" {
			t.Fatalf("%s: clean run classified send=%s recv=%s", scheme, o.Send, o.Recv)
		}
		if scheme != schemeRCGBN && o.FollowUp != "ok-reused" {
			t.Fatalf("%s: follow-up %q, want ok-reused", scheme, o.FollowUp)
		}
	}
}

// TestShrinkMinimizes: from a program whose failure is caused by one
// fault among several, shrink must isolate exactly that fault.
func TestShrinkMinimizes(t *testing.T) {
	p := Program{
		Seed: 7, Index: 4, Scheme: schemeSR, Size: 16 << 10,
		Faults: []Fault{
			{Kind: faultFlap, Edge: 3, At: 10 * time.Millisecond, Dur: 20 * time.Millisecond},
			{Kind: faultKillSession, At: 2 * time.Millisecond},
			{Kind: faultBurstLoss, Edge: 1, At: 5 * time.Millisecond, Dur: 20 * time.Millisecond, Pct: 10},
			{Kind: faultDrift, Edge: 0, At: 20 * time.Millisecond, Dur: 20 * time.Millisecond, Pct: 1},
		},
	}
	// Synthetic predicate: "fails" iff a kill-session fault is present
	// (a pure, cheap stand-in for a real invariant breach).
	failing := func(q Program) bool { return hasKind(q.Faults, faultKillSession) }
	m := shrink(p, failing)
	if len(m.Faults) != 1 || m.Faults[0].Kind != faultKillSession {
		t.Fatalf("shrink left %v, want exactly the kill-session fault", m.Faults)
	}
	// A passing program is returned untouched.
	ok := shrink(p, func(Program) bool { return false })
	if len(ok.Faults) != len(p.Faults) {
		t.Fatalf("shrink mutated a passing program: %v", ok.Faults)
	}
}

// TestShrinkOnRealInvariants runs shrink with the real runProgram
// predicate against a composed program whose only real failure cause
// is the session kill — the end-to-end counterexample-minimization
// path a deliberately-broken build would exercise.
func TestShrinkOnRealInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shrink in -short mode")
	}
	p := Program{
		Seed: 7, Index: 5, Scheme: schemeSRNACK, Size: 16 << 10,
		Faults: []Fault{
			{Kind: faultFlap, Edge: 3, At: 10 * time.Millisecond, Dur: 20 * time.Millisecond},
			{Kind: faultKillSession, At: 2 * time.Millisecond},
		},
	}
	// Predicate: the scenario does NOT end in ok/ok (stand-in for "the
	// property my bisection chases"). The flap of the backup arm is
	// irrelevant; shrink must drop it.
	failing := func(q Program) bool {
		o := runProgram(clock.NewVirtual(), q)
		return o.Send != "ok" || o.Recv != "ok"
	}
	m := shrink(p, failing)
	if len(m.Faults) != 1 || m.Faults[0].Kind != faultKillSession {
		t.Fatalf("shrink left %v, want exactly the kill-session fault", m.Faults)
	}
}

func BenchmarkChaosScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := runProgram(clock.NewVirtual(), generate(smokeSeed, i%50))
		if len(o.Violations) != 0 {
			b.Fatalf("scenario %d: %v", i%50, o.Violations)
		}
	}
}
