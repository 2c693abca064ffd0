package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/dpa"
	"sdrrdma/internal/nicsim"
)

// Context owns the hardware resources shared by SDR QPs on one device:
// the DPA worker pool, the NULL memory key used to retire completed
// message slots, and the device's memory registrations (Table 1:
// context_create).
type Context struct {
	dev *nicsim.Device
	cfg Config
	// clk holds the deployment clock behind an atomic pointer: a
	// pooled deployment's re-home (SetClock) can overlap a straggler
	// late-packet delivery from the previous lease — stale traffic the
	// retire path absorbs by design — and that delivery reads the
	// clock (late re-ACK rate limiting).
	clk    atomic.Pointer[clock.Clock]
	pool   *dpa.Pool
	nullMR *nicsim.NullMR

	// Session-scoped MR tracking (see SetMRTracking): with tracking on,
	// every RegMR key is recorded so resetLeaseMRs can deregister the
	// batch when a pooled deployment's lease is released.
	trackMu  sync.Mutex
	trackMRs bool
	leaseMRs []uint32
}

// NewContext allocates a context on dev.
func NewContext(dev *nicsim.Device, cfg Config) (*Context, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	clk := clock.Or(cfg.Clock)
	pool := dpa.NewPool()
	// The delivery mode is a function of the clock kind, decided here,
	// where the clock is bound, and never again (SetClock refuses to
	// cross kinds). A virtual deployment must not run free-running
	// poller goroutines: completions are processed inside the delivery
	// event. The same scheduler baton that mandates synchronous
	// completion processing also serializes every QP send and delivery,
	// so the device can drop its per-packet locking.
	pool.SetSynchronous(clk.IsVirtual())
	dev.SetSerial(clk.IsVirtual())
	c := &Context{
		dev:    dev,
		cfg:    cfg,
		pool:   pool,
		nullMR: dev.AllocNullMR(),
	}
	c.clk.Store(&clk)
	return c, nil
}

// Clock returns the clock the context (and every QP created from it)
// runs on.
func (c *Context) Clock() clock.Clock { return *c.clk.Load() }

// ErrClockKind is returned by SetClock for a re-home between a real
// and a virtual clock.
var ErrClockKind = errors.New("sdr: re-home across clock kinds")

// SetClock re-homes the context (and every QP created from it) onto
// clk. The session fabric uses this to move a pooled deployment onto a
// sweep lane's virtual clock so cells can lease instead of cold-
// building a per-lane session. clk must be of the kind the context was
// built on: the DPA workers and the device took their delivery mode
// from it at construction, so a virtual deployment on a real clock (or
// the reverse) is refused with ErrClockKind and the context stays where
// it was. Must only be called while the context is quiescent — no
// in-flight data operations or scheduled timers; a straggler late
// packet from the previous lease may still deliver, which is why the
// clock swap itself is atomic.
func (c *Context) SetClock(clk clock.Clock) error {
	cur := c.Clock()
	if clock.Or(clk) == cur {
		return nil // a re-lease on the clock the context already runs on
	}
	cc := clock.Or(clk) // escapes into the atomic below: declared past the common return
	if cc.IsVirtual() != cur.IsVirtual() {
		return fmt.Errorf("%w: %s was built with IsVirtual() = %t", ErrClockKind, c.dev.Name(), cur.IsVirtual())
	}
	c.clk.Store(&cc)
	return nil
}

// Config returns the context configuration (with defaults applied).
func (c *Context) Config() Config { return c.cfg }

// Pool exposes the DPA worker pool (observability: processed packet
// and PCIe-write counters).
func (c *Context) Pool() *dpa.Pool { return c.pool }

// RegMR registers a user buffer for send/receive via QPs in the
// context (Table 1: mr_reg).
func (c *Context) RegMR(buf []byte) *nicsim.MR {
	mr := c.dev.RegMR(buf)
	c.trackMu.Lock()
	if c.trackMRs {
		c.leaseMRs = append(c.leaseMRs, mr.Key())
	}
	c.trackMu.Unlock()
	return mr
}

// SetMRTracking toggles session-scoped MR tracking. The session fabric
// enables it on pooled deployments: registrations a flow makes during
// its lease (staging buffers, parity scratch) are deregistered by
// resetLeaseMRs on release instead of accumulating in the device's
// memory table across thousands of leases.
func (c *Context) SetMRTracking(on bool) {
	c.trackMu.Lock()
	c.trackMRs = on
	c.trackMu.Unlock()
}

// resetLeaseMRs deregisters every registration recorded since the last
// reset. MRs handed out during the lease are invalid afterwards.
func (c *Context) resetLeaseMRs() {
	c.trackMu.Lock()
	for _, key := range c.leaseMRs {
		c.dev.DeregMR(key)
	}
	c.leaseMRs = c.leaseMRs[:0]
	c.trackMu.Unlock()
}

// close stops the DPA workers. QPs created from this context must not
// be used afterwards.
func (c *Context) close() { c.pool.Stop() }
