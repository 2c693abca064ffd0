package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
)

// Errors returned by the SDR data path.
var (
	// ErrRecvQueueFull means every message slot already holds an
	// uncompleted receive (1024 in-flight descriptors for the default
	// 10-bit message ID, §3.2.4).
	ErrRecvQueueFull = errors.New("sdr: receive slot busy — complete earlier receives first")
	// errMsgTooLarge means the message exceeds the per-slot maximum.
	errMsgTooLarge = errors.New("sdr: message exceeds MaxMsgBytes")
	// errSizeMismatch means a send does not fit the size announced by
	// the matching receive's CTS (order-based matching contract,
	// §3.1.3).
	errSizeMismatch = errors.New("sdr: send larger than matched receive buffer")
	// errImmNotReady means the user immediate cannot be reconstructed
	// yet (not all fragments arrived, §3.2.4).
	errImmNotReady = errors.New("sdr: user immediate not yet reconstructable")
	// errAlreadyCompleted means the receive handle was completed.
	errAlreadyCompleted = errors.New("sdr: receive already completed")
	// errStreamEnded means Continue was called after End.
	errStreamEnded = errors.New("sdr: send stream already ended")
	// errNotConnected means the QP has not been connected.
	errNotConnected = errors.New("sdr: QP not connected")
	// errOffsetUnaligned means a streaming send targeted an offset
	// that is not MTU-aligned.
	errOffsetUnaligned = errors.New("sdr: stream offset must be MTU-aligned")
	// ErrQPAborted means the QP was cancelled via Abort while an
	// operation was blocked or about to block; the recorded cause is
	// attached to the chain. Sticky until Reset.
	ErrQPAborted = errors.New("sdr: QP aborted")
	// ErrCTSTimeout means the peer never posted the matching receive
	// within the caller's deadline — the order-based matching handshake
	// (§3.1.3) stalled, typically because the peer crashed or the
	// control plane is partitioned.
	ErrCTSTimeout = errors.New("sdr: timed out waiting for clear-to-send")
)

// QPInfo is the out-of-band connection blob (Table 1: qp_info_get):
// everything the peer needs to address this QP.
type QPInfo struct {
	// RootKeys[g] is generation g's zero-based indirect memory key.
	// Each generation owns a separate root table so that packets from
	// a stale generation land in that generation's (NULL-retired)
	// entries rather than a newer message reusing the slot (§3.3.2).
	RootKeys []uint32
	// ChannelQPNs[g][c] is the UC QP number for generation g,
	// channel c.
	ChannelQPNs [][]uint32
}

// Stats aggregates QP data-path counters.
type Stats struct {
	// PacketsSent counts data packets injected.
	PacketsSent uint64
	// PacketsReceived counts completions accepted by the backend.
	PacketsReceived uint64
	// LateDiscarded counts completions rejected by the generation /
	// active-slot check (§3.3.2 stage 2).
	LateDiscarded uint64
	// Duplicates counts packets that hit an already-set bitmap bit.
	Duplicates uint64
	// CTSSent and CTSReceived count clear-to-send control messages.
	CTSSent, CTSReceived uint64
}

// QP is an SDR queue pair (Table 1: qp_create). Internally it owns
// Generations×Channels UC queue pairs; packets round-robin across
// channels and each channel CQ is drained by a dedicated DPA worker
// (§3.4.1).
type QP struct {
	ctx *Context
	cfg Config
	ic  immCodec

	// chQPs[g][c] is generation g's channel c; the rows share one
	// backing array. Their CQs belong to the context's DPA pool, which
	// closes them.
	chQPs [][]*nicsim.UCQP

	// rootMRs[g] is generation g's root indirect memory key (§3.2.2,
	// §3.3.2).
	rootMRs []*nicsim.IndirectMR

	connected atomic.Bool
	peer      QPInfo
	// info is the connection blob, computed once at construction — keys
	// and QPNs never change, and caching it keeps the per-lease rebind
	// of a pooled deployment allocation-free on this path.
	info QPInfo

	// receiver state
	recvMu  sync.Mutex
	recvSeq uint64
	// leaseSeq is recvSeq at the last Reset: receives posted since then
	// are the only ones that can still hold a slot.
	leaseSeq uint64
	// slots is the receive message table (§3.2.2), indexed by message
	// ID: a slot's live handle, nil once it retires. Its storage, like
	// each root key's, grows only as far as receives have been posted.
	slots nicsim.Table[RecvHandle]

	// sender state. CTS waiters block on the context clock's epoch
	// notification (not a sync.Cond): under the virtual clock a
	// blocked sender must be visible to the discrete-event scheduler
	// or time could never advance past it.
	sendMu  sync.Mutex
	sendSeq uint64
	ctsHigh uint64            // receives posted by peer (CTS count)
	ctsSize map[uint64]uint64 // seq → posted buffer size

	packetsSent     atomic.Uint64
	packetsReceived atomic.Uint64
	lateDiscarded   atomic.Uint64
	duplicates      atomic.Uint64
	ctsSent         atomic.Uint64
	ctsReceived     atomic.Uint64

	// lateSink, when set, observes every data packet absorbed by the
	// late-packet protection (§3.3.2): the slot and generation the
	// packet addressed. Reliability layers use it to re-ACK senders
	// still retransmitting into recently retired receives. Only the
	// late path reads it, so a mutex (not an atomic box that every
	// lease of a pooled deployment would have to allocate) guards it.
	lateMu   sync.Mutex
	lateSink func(slot int, gen uint32)

	// ctsIn is the bound deliverCTS, and sendCTS the bound send side of
	// oob, the channel the QP was last connected over: a pooled
	// deployment reconnects over the same OOB every lease, and binding
	// a method value allocates.
	ctsIn    func([]byte)
	oob      *fabric.OOB
	oobSideA bool
	sendCTS  func([]byte)

	// abortCause, when set, cancels every blocked and future operation
	// on this QP: CTS waiters wake and return ErrQPAborted wrapping the
	// cause. First abort wins; Reset clears it for the next lease.
	abortCause atomic.Pointer[error]
}

// Abort cancels the QP: every operation currently blocked on a
// clear-to-send (and every future one) fails with ErrQPAborted
// wrapping cause. The first cause sticks until Reset; later calls are
// no-ops. Safe from any goroutine, including clock callbacks.
func (qp *QP) Abort(cause error) {
	if cause == nil {
		cause = ErrQPAborted
	}
	if qp.abortCause.CompareAndSwap(nil, &cause) {
		qp.ctx.Clock().Notify()
	}
}

// abortErr returns the typed abort error (ErrQPAborted wrapping the
// recorded cause), or nil if the QP has not been aborted.
func (qp *QP) abortErr() error {
	p := qp.abortCause.Load()
	if p == nil {
		return nil
	}
	cause := *p
	if cause == ErrQPAborted {
		return ErrQPAborted
	}
	return fmt.Errorf("%w: %w", ErrQPAborted, cause)
}

// SetLateSink registers fn (nil clears) to be called for every late
// data packet discarded by the generation / active-slot check — a
// retransmission that arrived after the receive retired. fn runs on
// the packet-delivery path (the driving actor's goroutine under a
// virtual clock, a fabric timer goroutine otherwise) and must not
// block.
func (qp *QP) SetLateSink(fn func(slot int, gen uint32)) {
	qp.lateMu.Lock()
	qp.lateSink = fn
	qp.lateMu.Unlock()
}

// noteLate hands one absorbed late packet to the registered sink.
func (qp *QP) noteLate(slot int, gen uint32) {
	qp.lateMu.Lock()
	sink := qp.lateSink
	qp.lateMu.Unlock()
	if sink != nil {
		sink(slot, gen)
	}
}

// NewQP creates an SDR QP within the context, allocating its internal
// UC channel QPs, completion queues, DPA workers, and the root
// indirect memory key.
func (c *Context) NewQP() *QP {
	cfg := c.cfg
	qp := &QP{
		ctx:     c,
		cfg:     cfg,
		ic:      newImmCodec(cfg),
		rootMRs: make([]*nicsim.IndirectMR, cfg.Generations),
		ctsSize: make(map[uint64]uint64),
	}
	qp.chQPs = make([][]*nicsim.UCQP, cfg.Generations)
	chans := make([]*nicsim.UCQP, cfg.Generations*cfg.Channels)
	for g := range cfg.Generations {
		// Every slot starts retired: an unset entry is the NULL key,
		// where late packets land.
		qp.rootMRs[g] = c.dev.AllocIndirectMR(cfg.slots(), uint64(cfg.MaxMsgBytes), c.nullMR)
		qp.chQPs[g] = chans[g*cfg.Channels : (g+1)*cfg.Channels : (g+1)*cfg.Channels]
		// One handler per generation serves all of its channels' CQs.
		gen := uint32(g)
		handle := func(cqes []nicsim.CQE) { qp.backendHandleBatch(gen, cqes) }
		for ch := range qp.chQPs[g] {
			cq := nicsim.NewCQ(cfg.CQDepth, false)
			qp.chQPs[g][ch] = nicsim.NewUCQP(c.dev, cfg.MTU, cq, nil)
			c.pool.SpawnBatch(cq, handle)
		}
	}
	qp.info = qp.buildInfo()
	qp.ctsIn = qp.deliverCTS
	return qp
}

func (qp *QP) buildInfo() QPInfo {
	info := QPInfo{RootKeys: make([]uint32, len(qp.rootMRs))}
	for g, mr := range qp.rootMRs {
		info.RootKeys[g] = mr.Key()
	}
	info.ChannelQPNs = make([][]uint32, len(qp.chQPs))
	qpns := make([]uint32, len(qp.chQPs)*qp.cfg.Channels)
	for g, chans := range qp.chQPs {
		info.ChannelQPNs[g] = qpns[g*len(chans) : (g+1)*len(chans) : (g+1)*len(chans)]
		for ch, uc := range chans {
			info.ChannelQPNs[g][ch] = uc.QPN()
		}
	}
	return info
}

// Info returns the connection blob for out-of-band exchange (Table 1:
// qp_info_get). The blob is immutable; callers must not modify it.
func (qp *QP) Info() QPInfo { return qp.info }

// Connect establishes the data path toward the remote QP (Table 1:
// qp_connect): wire carries data packets and oob the clear-to-send
// messages — side A sends toward B and receives on A's handler, side B
// the reverse.
func (qp *QP) Connect(wire nicsim.Wire, oob *fabric.OOB, sideA bool, remote QPInfo) error {
	if len(remote.ChannelQPNs) != qp.cfg.Generations || len(remote.RootKeys) != qp.cfg.Generations {
		return fmt.Errorf("sdr: remote has %d generations, local %d",
			len(remote.ChannelQPNs), qp.cfg.Generations)
	}
	for g := range qp.chQPs {
		if len(remote.ChannelQPNs[g]) != qp.cfg.Channels {
			return fmt.Errorf("sdr: remote generation %d has %d channels, local %d",
				g, len(remote.ChannelQPNs[g]), qp.cfg.Channels)
		}
		for ch := range qp.chQPs[g] {
			qp.chQPs[g][ch].Connect(wire, remote.ChannelQPNs[g][ch])
		}
	}
	qp.peer = remote
	if qp.oob != oob || qp.oobSideA != sideA {
		qp.oob, qp.oobSideA = oob, sideA
		if sideA {
			qp.sendCTS = oob.SendToB
		} else {
			qp.sendCTS = oob.SendToA
		}
	}
	qp.connected.Store(true)
	if sideA {
		oob.HandleA(qp.ctsIn)
	} else {
		oob.HandleB(qp.ctsIn)
	}
	return nil
}

// Config returns the QP's effective configuration.
func (qp *QP) Config() Config { return qp.cfg }

// Clock returns the clock this QP's deployment runs on.
func (qp *QP) Clock() clock.Clock { return qp.ctx.Clock() }

// Stats snapshots the QP counters.
func (qp *QP) Stats() Stats {
	return Stats{
		PacketsSent:     qp.packetsSent.Load(),
		PacketsReceived: qp.packetsReceived.Load(),
		LateDiscarded:   qp.lateDiscarded.Load(),
		Duplicates:      qp.duplicates.Load(),
		CTSSent:         qp.ctsSent.Load(),
		CTSReceived:     qp.ctsReceived.Load(),
	}
}

// reset prepares the QP for a new session lease on the same hardware:
// outstanding receives are force-retired, pending CTS matches are
// dropped, the late sink is cleared, the channel QPs abandon any
// half-delivered message, and the counters zero.
//
// Retiring costs what the lease posted, not what the QP holds: a root
// entry points at user memory only from RecvPost until Complete puts it
// back on the NULL key, so the only entries left to retire are those of
// receives posted since the last Reset whose handle is still live, each
// in the one generation it delivers under.
//
// Sequence numbers, CTS high-water mark and channel PSNs are
// deliberately preserved: message IDs and control opIDs stay unique
// for the lifetime of the deployment, so traffic still in flight from
// a previous lease — late retransmissions, delayed CTS or control
// datagrams — lands in NULL-retired slots or unmatched routing tables
// instead of colliding with the next session's operations.
func (qp *QP) reset() {
	qp.SetLateSink(nil)
	qp.abortCause.Store(nil)
	qp.recvMu.Lock()
	first := qp.leaseSeq
	if n := uint64(qp.cfg.slots()); qp.recvSeq-first > n {
		first = qp.recvSeq - n // older postings already gave their slot up
	}
	for seq := first; seq < qp.recvSeq; seq++ {
		slot := qp.slotFor(seq)
		if h := qp.slots.Load(slot); h != nil {
			h.completed.Store(true)
			qp.rootMRs[h.gen].SetEntry(slot, nil, 0)
			qp.slots.Store(slot, nil)
		}
	}
	qp.leaseSeq = qp.recvSeq
	qp.recvMu.Unlock()
	qp.sendMu.Lock()
	clear(qp.ctsSize)
	qp.sendMu.Unlock()
	for g := range qp.chQPs {
		for ch := range qp.chQPs[g] {
			qp.chQPs[g][ch].Reset()
		}
	}
	qp.packetsSent.Store(0)
	qp.packetsReceived.Store(0)
	qp.lateDiscarded.Store(0)
	qp.duplicates.Store(0)
	qp.ctsSent.Store(0)
	qp.ctsReceived.Store(0)
	qp.ctx.dev.RxPackets.Store(0)
	qp.ctx.dev.RxDropNoQP.Store(0)
}

// close detaches the QP's channel queue pairs from the device. The
// context's DPA workers, stopped by Context.close, close their CQs.
func (qp *QP) close() {
	for _, chans := range qp.chQPs {
		for _, uc := range chans {
			qp.ctx.dev.DestroyQP(uc.QPN())
		}
	}
}

// genFor returns the generation of message sequence number seq: slots
// cycle through generations as message IDs wrap (§3.3.2).
func (qp *QP) genFor(seq uint64) uint32 {
	return uint32(seq / uint64(qp.cfg.slots()) % uint64(qp.cfg.Generations))
}

// slotFor returns the message slot (= wire message ID) for seq.
func (qp *QP) slotFor(seq uint64) int {
	return int(seq % uint64(qp.cfg.slots()))
}

// --- CTS control messages -------------------------------------------------

// ctsMsgLen is seq(8) + size(8) + crc32c(4). The checksum covers the
// first 16 bytes; a corrupted CTS is dropped like a lost one and the
// receiver's linger/retry machinery re-announces it.
const ctsMsgLen = 20

// ctsCRCTable is the Castagnoli table shared with the reliability
// control plane's trailer.
var ctsCRCTable = crc32.MakeTable(crc32.Castagnoli)

func encodeCTS(seq, size uint64) []byte {
	buf := make([]byte, ctsMsgLen)
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[8:], size)
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[:16], ctsCRCTable))
	return buf
}

// deliverCTS ingests one clear-to-send message from the out-of-band
// channel (§3.2.3: the receiver announces a posted buffer; the sender
// may then write message seq). Messages with a bad length or checksum
// are treated as wire loss.
func (qp *QP) deliverCTS(msg []byte) {
	if len(msg) != ctsMsgLen {
		return
	}
	if crc32.Checksum(msg[:16], ctsCRCTable) != binary.LittleEndian.Uint32(msg[16:]) {
		return
	}
	seq := binary.LittleEndian.Uint64(msg[0:])
	size := binary.LittleEndian.Uint64(msg[8:])
	qp.ctsReceived.Add(1)
	qp.sendMu.Lock()
	qp.ctsSize[seq] = size
	if seq >= qp.ctsHigh {
		qp.ctsHigh = seq + 1
	}
	qp.sendMu.Unlock()
	qp.ctx.Clock().Notify()
}

// SendReady reports whether the peer has already posted the receive
// matching this QP's NEXT send — i.e. whether SendStreamStart/SendPost
// would proceed without blocking on a clear-to-send. Windowed senders
// (the adaptive reliability controller) use it to start new operations
// only when doing so cannot stall the pump loop that services
// retransmissions of operations already in flight.
func (qp *QP) SendReady() bool {
	qp.sendMu.Lock()
	_, ok := qp.ctsSize[qp.sendSeq]
	qp.sendMu.Unlock()
	return ok
}

// waitCTS blocks until the peer posted the receive matching seq and
// returns its size. The epoch is snapshotted before each check, so a
// CTS that lands between the check and the wait wakes it immediately.
// A timeout > 0 bounds the wait (ErrCTSTimeout); an abort wakes it at
// any point (ErrQPAborted wrapping the cause). timeout <= 0 blocks
// until CTS or abort.
func (qp *QP) waitCTS(seq uint64, timeout time.Duration) (uint64, error) {
	clk := qp.ctx.Clock()
	var deadline time.Time
	if timeout > 0 {
		deadline = clk.Now().Add(timeout)
	}
	for {
		epoch := clk.Epoch()
		if err := qp.abortErr(); err != nil {
			return 0, err
		}
		qp.sendMu.Lock()
		if size, ok := qp.ctsSize[seq]; ok {
			delete(qp.ctsSize, seq)
			qp.sendMu.Unlock()
			return size, nil
		}
		qp.sendMu.Unlock()
		wait := time.Duration(-1)
		if timeout > 0 {
			wait = deadline.Sub(clk.Now())
			if wait <= 0 {
				return 0, fmt.Errorf("%w: seq %d after %v", ErrCTSTimeout, seq, timeout)
			}
		}
		clk.WaitNotify(epoch, wait)
	}
}
