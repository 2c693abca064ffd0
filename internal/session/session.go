// Package session implements the elastic session fabric: a pool of
// fully built reliability deployments — devices, SDR contexts and QPs,
// control planes with their posted receive rings — leased to
// individual flows and reset on release, the way clock.Lanes leases
// virtual engines to sweep cells.
//
// There is one way to build a deployment and one way to start a session
// on it, and a pooled lease and a cold reliability.NewSession are the
// same two steps. Build: core.NewPairDetached makes the SDR contexts and
// QPs, reliability.NewEndpoints the detached control planes and
// endpoints. Bind: core.Pair.Bind connects the QPs over a link and OOB
// channel, reliability.NewSessionOver attaches the control planes to
// that link and rebinds the endpoints. NewSession does both once and
// tears down on Close; a Pool builds once per deployment and binds once
// per lease.
//
// Construction is the expensive half: per-channel CQ rings, the
// root-key retire pass, DPA workers, the control planes' receive rings,
// the reliability endpoints with their re-ACK rings and operation
// scratch. A lease costs what the lease touches — reconnecting the QPs
// over the deployment's own link and OOB envelopes, re-attaching the
// control planes, rebinding the endpoints, and on release retiring the
// receive slots and memory registrations the flow actually used. Nothing
// on that path scales with the size of the deployment (slots ×
// generations, memory table, generator state) or with how many leases
// came before. That is what lets one netem dumbbell host thousands of
// sequential and hundreds of live concurrent flows without rebuilding
// the world per flow.
//
// What survives a reset, and why none of it can poison the next lease:
//
//   - The monotonic sequence space. Message sequence numbers, UC PSNs
//     and control opIDs run on over the deployment lifetime
//     (core.Pair.Reset deliberately preserves them), so late data
//     packets land in NULL-retired root-table slots and late control
//     datagrams route to unregistered operation IDs.
//   - The envelopes: the fabric link and OOB channel (and, for netem
//     flows, the re-routable paths the topology keeps per deployment).
//     They are re-parameterized whole per lease — impairments, clock,
//     destination, draw stream restarted from the lease's seed, queues,
//     bookings and counters emptied — and they only ever lead to this
//     deployment's own devices, so a straggler still travelling through
//     them ends where the first point absorbs it.
//   - The reliability endpoints. Rebinding wipes everything a late
//     packet or a caller could observe — the re-ACK ring (a re-leased
//     endpoint never answers a late packet with the previous lease's
//     final ACK), counters, abort cause, telemetry attachment — and
//     keeps only working storage that every operation initialises
//     before use: chunk and shard scratch, parity slab, the cache of
//     instantiated erasure codes, control-stream buffers (drained when
//     their operation ends).
//   - Memory-table slots. A deregistered region's slot is reused, but
//     under a new key generation, so a key of a previous lease never
//     resolves again.
//
// Determinism: a pool is deterministic state. The first lease of each
// deployment is a cold build by construction — the same calls — and
// later leases reset all protocol-visible state, so a figure cell that
// leases instead of building stays byte-identical per seed
// (TestColdBuildFirstLeaseAndReLeaseEquivalent, per scheme). Even a
// pool shared across concurrently running sweep cells — where lease
// order depends on worker scheduling — cannot leak into figure output:
// of the state listed above only the sequence space and the key
// generations carry values forward, their absolute values affect no
// timing and no counter, and LeaseLinkedOn re-homes each lease onto the
// cell's own clock. Cells on different lanes may draw different
// deployments on different runs and still produce identical bytes.
//
// A deployment's
// delivery mode (inline serial sinks and no device locks on a virtual
// clock, poller goroutines and locks on a real one) is fixed by the kind
// of the pool's template clock, so a lease never crosses kinds:
// LeaseLinkedOn refuses with core.ErrClockKind.
package session

import (
	"fmt"
	"sync"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/telemetry"
)

// Config parameterizes a Pool.
type Config struct {
	// Core is the SDR configuration every pooled deployment is built
	// with. Core.Clock must be set: the pool's deployments all run on
	// it, and pooling across clocks would leak state between runs.
	Core core.Config
	// Name prefixes pooled device names (diagnostics only; defaults to
	// "session").
	Name string
}

// Pool leases reusable reliability deployments. All methods are safe
// for concurrent use; under a virtual clock, concurrent use only
// happens within one serialized simulation anyway.
type Pool struct {
	cfg Config

	mu          sync.Mutex
	free        []*Deployment
	built       int // deployments ever constructed
	leased      int // deployments currently out
	quarantined int // deployments retired from circulation
	closed      bool

	// sink, when non-nil, receives cold-build/lease/rebind/release
	// events on track (guarded by mu like the counters it narrates).
	sink  telemetry.Sink
	track int32

	// Quarantined counts deployments permanently retired because a
	// failure left their state untrusted (Deployment.Quarantine). It
	// counts whether or not a recorder is attached; register it via
	// telemetry.Recorder.RegisterCounter to surface it in summaries.
	Quarantined telemetry.Counter
}

// SetTelemetry attaches a telemetry sink: the pool reports deployment
// cold builds, leases, rebinds and releases as instant events on
// track, stamped with the pool clock. Pass nil to detach.
func (p *Pool) SetTelemetry(sink telemetry.Sink, track int32) {
	p.mu.Lock()
	p.sink, p.track = sink, track
	p.mu.Unlock()
}

// probe emits one pool-lifecycle event when a sink is attached.
func (p *Pool) probe(sink telemetry.Sink, track int32, kind telemetry.EventKind, a0 int64) {
	if sink == nil {
		return
	}
	sink.Event(p.cfg.Core.Clock.NowNanos(), kind, track, a0, 0, 0, 0)
}

// NewPool validates cfg and returns an empty pool; deployments are
// built lazily on first Acquire.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Core.Clock == nil {
		return nil, fmt.Errorf("session: pool requires an explicit Core.Clock")
	}
	if cfg.Name == "" {
		cfg.Name = "session"
	}
	return &Pool{cfg: cfg}, nil
}

// Deployment is one pooled build: two devices with their SDR pair and
// control planes. Between Acquire and Bind the caller terminates its
// delivery chains at DevA/DevB; Bind then produces the lease's
// session, whose Close releases the deployment back to the pool.
type Deployment struct {
	pool *Pool
	pair *core.Pair
	// epA and epB are the reliability endpoints (each owning its control
	// plane), rebound per lease by Bind.
	epA, epB *reliability.Endpoint
	leased   bool
	// releaseFn and quarantineFn cache the method values so per-lease
	// Bind does not allocate fresh closures.
	releaseFn    func()
	quarantineFn func()
	// link and oob are the pooled fabric envelopes every lease is wired
	// across: built on the deployment's first Bind and Reconfigure/Reset
	// per lease afterwards, so flow churn costs no Direction, rng or OOB
	// construction.
	link *fabric.Link
	oob  *fabric.OOB
}

// Acquire leases a deployment: a reset one off the free list, or a
// fresh build when the pool is empty. Release it by closing the
// session obtained from Bind.
func (p *Pool) Acquire() (*Deployment, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("session: Acquire on closed pool")
	}
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		d.leased = true
		p.leased++
		sink, track, leased := p.sink, p.track, p.leased
		p.mu.Unlock()
		p.probe(sink, track, telemetry.EvLease, int64(leased))
		return d, nil
	}
	idx := p.built
	p.built++
	p.leased++
	sink, track := p.sink, p.track
	p.mu.Unlock()

	d, err := p.build(idx)
	if err != nil {
		p.mu.Lock()
		p.built--
		p.leased--
		p.mu.Unlock()
		return nil, err
	}
	d.leased = true
	p.probe(sink, track, telemetry.EvColdBuild, int64(idx+1))
	return d, nil
}

// build constructs one deployment, detached — what reliability.NewSession
// builds before it binds, under pooled device names: the cold path
// every lease of it afterwards amortizes.
func (p *Pool) build(idx int) (*Deployment, error) {
	devA := nicsim.NewDevice(fmt.Sprintf("%s/pool%da", p.cfg.Name, idx))
	devB := nicsim.NewDevice(fmt.Sprintf("%s/pool%db", p.cfg.Name, idx))
	pair, err := core.NewPairDetached(p.cfg.Core, devA, devB)
	if err != nil {
		return nil, fmt.Errorf("session: deployment %d: %w", idx, err)
	}
	// Per-flow registrations (staging buffers, parity scratch) must not
	// accumulate across leases; track them so Reset deregisters.
	pair.A.Ctx.SetMRTracking(true)
	pair.B.Ctx.SetMRTracking(true)
	d := &Deployment{pool: p, pair: pair}
	if d.epA, d.epB, err = reliability.NewEndpoints(pair); err != nil {
		pair.Close()
		return nil, fmt.Errorf("session: deployment %d: %w", idx, err)
	}
	d.releaseFn = d.release
	d.quarantineFn = d.quarantineLeased
	return d, nil
}

// DevA returns the deployment's A-side device — the terminal Deliverer
// for the lease's B→A delivery chain.
func (d *Deployment) DevA() *nicsim.Device { return d.pair.A.Dev }

// DevB returns the B-side device (terminal for the A→B chain).
func (d *Deployment) DevB() *nicsim.Device { return d.pair.B.Dev }

// Bind wires the leased deployment for one session and returns it. The
// data path is the deployment's pooled link — AB delivering into toB
// under impairments ab, BA into toA under ba — and its pooled OOB
// channel of oobLatency, all on the deployment's current clock (see
// rehome). toB and toA are the heads of the lease's delivery chains,
// which must end at DevB and DevA; nil means the device itself, a
// standalone link. The QPs connect over the link and
// reliability.NewSessionOver starts the session on the retained
// endpoints, exactly as for a cold build. Closing the session resets
// the deployment and releases it back to the pool.
func (d *Deployment) Bind(relCfg reliability.Config, toB, toA nicsim.Deliverer, ab, ba fabric.Config, oobLatency time.Duration) (*reliability.Session, error) {
	if !d.leased {
		return nil, fmt.Errorf("session: Bind on a deployment that is not leased")
	}
	if err := relCfg.WithDefaults().Validate(); err != nil {
		return nil, err
	}
	link, oob := d.envelopes(toB, toA, ab, ba, oobLatency)
	if err := d.pair.Bind(link, oob); err != nil {
		return nil, err
	}
	p := d.pool
	p.mu.Lock()
	sink, track := p.sink, p.track
	p.mu.Unlock()
	p.probe(sink, track, telemetry.EvRebind, 0)
	s := reliability.NewSessionOver(d.pair, d.epA, d.epB, relCfg)
	s.SetPooled(d.releaseFn, d.quarantineFn)
	return s, nil
}

// release resets the deployment's per-session state and returns it to
// the pool (Session.Close calls it after flushing pending retires).
// Releasing a deployment that is not leased panics: it means two
// owners believed they held the lease.
func (d *Deployment) release() {
	p := d.pool
	p.mu.Lock()
	if !d.leased {
		p.mu.Unlock()
		panic("session: deployment released twice")
	}
	d.leased = false
	p.leased--
	d.pair.Reset()
	closed := p.closed
	if !closed {
		p.free = append(p.free, d)
	}
	sink, track, leased := p.sink, p.track, p.leased
	p.mu.Unlock()
	if closed {
		d.teardown()
		return
	}
	p.probe(sink, track, telemetry.EvRelease, int64(leased))
}

// Release returns an acquired deployment to the pool without a Bind —
// the error-path counterpart of closing the bound session. Releasing a
// deployment whose session was already closed panics (double release).
//
// Idempotency lives one layer up: reliability.Session.Close and
// .Quarantine are CAS-guarded, so an abort path racing a deferred
// Close fires this hook at most once per lease. A second explicit
// Release here means two owners believed they held the lease — a
// genuine double-free, and it panics.
func (d *Deployment) Release() { d.release() }

// Quarantine permanently retires a leased deployment from circulation:
// its resources are torn down, it never returns to the free list, and
// the pool's quarantine health counter advances. Use it when a failure
// (abort mid-transfer, suspected state corruption) leaves the
// deployment untrustworthy — a quarantined lease can never poison a
// later flow. Quarantining an unleased deployment panics.
func (d *Deployment) Quarantine() { d.quarantineLeased() }

// quarantineLeased is the Session.Quarantine hook body.
func (d *Deployment) quarantineLeased() {
	p := d.pool
	p.mu.Lock()
	if !d.leased {
		p.mu.Unlock()
		panic("session: deployment quarantined while not leased")
	}
	d.leased = false
	p.leased--
	p.quarantined++
	q := p.quarantined
	sink, track := p.sink, p.track
	p.mu.Unlock()
	p.Quarantined.Add(1)
	p.probe(sink, track, telemetry.EvQuarantine, int64(q))
	d.teardown()
}

// teardown permanently destroys the deployment's resources.
func (d *Deployment) teardown() {
	d.epA.CP.Close()
	d.epB.CP.Close()
	d.pair.Close()
}

// rehome moves the deployment's clock domain — both SDR contexts, and
// with them the QPs and control planes — onto clk (nil = shared real
// clock). It is the mechanism that lets a pool built on one template
// clock serve sweep lanes running their own virtual engines:
// deployments carry no other clock state between leases, and the
// per-lease reset already erases everything output-visible, so a
// re-homed lease behaves exactly like a cold build on clk. clk must be
// of the template clock's kind — a deployment's delivery mode was fixed
// by it at build time — or rehome fails with core.ErrClockKind and
// moves nothing. Only call between leases.
func (d *Deployment) rehome(clk clock.Clock) error {
	if err := d.pair.A.Ctx.SetClock(clk); err != nil {
		return err
	}
	return d.pair.B.Ctx.SetClock(clk)
}

// envelopes returns the deployment's pooled link and OOB channel,
// built on first use and re-parameterized in place on every later
// lease.
func (d *Deployment) envelopes(toB, toA nicsim.Deliverer, ab, ba fabric.Config, oobLatency time.Duration) (*fabric.Link, *fabric.OOB) {
	clk := d.pair.A.Ctx.Clock()
	if toB == nil {
		toB = d.DevB()
	}
	if toA == nil {
		toA = d.DevA()
	}
	if ab.Clock == nil {
		ab.Clock = clk
	}
	if ba.Clock == nil {
		ba.Clock = clk
	}
	if d.link == nil {
		d.link = &fabric.Link{AB: fabric.NewDirectionTo(toB, ab), BA: fabric.NewDirectionTo(toA, ba)}
		d.oob = fabric.NewOOB(clk, oobLatency)
		return d.link, d.oob
	}
	d.link.AB.Reconfigure(toB, ab)
	d.link.BA.Reconfigure(toA, ba)
	d.oob.Reset(clk, oobLatency)
	return d.link, d.oob
}

// LeaseLinked acquires a deployment and wires it across a standalone
// fabric link with per-direction impairment configs ab/ba and an OOB
// channel of oobLatency — the pooled counterpart of
// reliability.NewSession, for harnesses whose data path is a single
// link rather than a netem route (netem.Topology.NewFlow is the same
// lease with its route's heads in place of the devices).
func (p *Pool) LeaseLinked(relCfg reliability.Config, ab, ba fabric.Config, oobLatency time.Duration) (*reliability.Session, error) {
	return p.LeaseLinkedOn(nil, relCfg, ab, ba, oobLatency)
}

// LeaseLinkedOn is LeaseLinked with the deployment re-homed onto clk
// for the duration of the lease (nil = the pool's own Core.Clock).
// Sweep cells running on clock.Lanes call it with their lane's engine:
// the pool cold-builds each deployment once, and every later cell —
// on whatever lane — pays only the rebind. The preserved monotonic
// state (PSNs, message seqs, control opIDs) is timing-transparent and
// every counter resets per lease, so cells stay byte-identical per
// seed no matter which deployment they draw. A clk of the other kind
// than the pool's Core.Clock fails with core.ErrClockKind (see rehome).
func (p *Pool) LeaseLinkedOn(clk clock.Clock, relCfg reliability.Config, ab, ba fabric.Config, oobLatency time.Duration) (*reliability.Session, error) {
	d, err := p.Acquire()
	if err != nil {
		return nil, err
	}
	if clk == nil {
		clk = p.cfg.Core.Clock
	}
	if err := d.rehome(clk); err != nil {
		d.release()
		return nil, err
	}
	s, err := d.Bind(relCfg, nil, nil, ab, ba, oobLatency)
	if err != nil {
		d.release()
		return nil, err
	}
	return s, nil
}

// Stats reports how many deployments the pool has ever built and how
// many are currently leased. built bounds steady-state memory; leased
// > 0 at teardown time is a leak.
func (p *Pool) Stats() (built, leased int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built, p.leased
}

// Close tears down every free deployment and marks the pool closed
// (further Acquires fail; outstanding leases tear their deployments
// down on release). It returns an error when leases are still
// outstanding — the leak detector pool-lifecycle tests assert on.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	free := p.free
	p.free = nil
	leaked := p.leased
	p.mu.Unlock()
	for _, d := range free {
		d.teardown()
	}
	if leaked > 0 {
		return fmt.Errorf("session: %d deployment(s) still leased at pool close", leaked)
	}
	return nil
}
