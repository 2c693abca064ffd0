package reliability

import (
	"fmt"

	"sdrrdma/internal/nicsim"
)

// ecGeometry captures how a message decomposes into erasure-coded
// submessages (§4.1.2): L data submessages of k chunks (the tail
// submessage may have fewer real chunks and is padded with virtual
// zero chunks so the (k, m) code applies uniformly), each paired with
// a parity submessage of m chunks.
type ecGeometry struct {
	chunkBytes int
	k, m       int
	nchunks    int // real data chunks
	L          int // submessages
}

func newECGeometry(size, chunkBytes, k, m int) ecGeometry {
	nchunks := (size + chunkBytes - 1) / chunkBytes
	l := (nchunks + k - 1) / k
	if l == 0 {
		l = 1
	}
	return ecGeometry{chunkBytes: chunkBytes, k: k, m: m, nchunks: nchunks, L: l}
}

// realChunks returns how many real data chunks submessage i holds.
func (g ecGeometry) realChunks(i int) int {
	return max(0, min(g.k, g.nchunks-i*g.k))
}

// subOffset returns the byte offset of data submessage i within the
// message.
func (g ecGeometry) subOffset(i int) int { return i * g.k * g.chunkBytes }

// subBytes returns the real byte size of data submessage i within a
// message of size total bytes.
func (g ecGeometry) subBytes(i, total int) int {
	return min(g.subOffset(i+1), total) - g.subOffset(i)
}

// parityBytes is the wire size of each parity submessage.
func (g ecGeometry) parityBytes() int { return g.m * g.chunkBytes }

// ECScratchBytes returns the parity scratch size ReceiveEC requires
// for a message of msgBytes under this config and chunk size — the
// L·m·chunk geometry Session.NewTransfer sizes the scratch it
// registers with.
func (c Config) ECScratchBytes(chunkBytes, msgBytes int) int {
	cfg := c.WithDefaults()
	g := newECGeometry(msgBytes, chunkBytes, cfg.K, cfg.M)
	return g.L * g.parityBytes()
}

// WriteEC reliably writes data using the erasure-coding scheme of
// §4.1.2: one coded segment of L submessages — each data submessage a
// streaming SDR send (kept open for fallback retransmission), its
// parity a one-shot send. The sender finishes on the receiver's
// positive ACK; an EC NACK triggers Selective-Repeat-style
// retransmission of the listed missing chunks through the open streams.
func (e *Endpoint) WriteEC(data []byte) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	cfg := e.Cfg
	clk := e.clock()
	g := newECGeometry(len(data), e.QP.Config().ChunkBytes, cfg.K, cfg.M)
	e.scr.reserveParity(g.L * g.parityBytes())
	seg := sendSeg{
		e: e, data: data, g: g,
		streams: scratchSlice(&e.scr.streams, g.L),
		chunks:  scratchSlice(&e.scr.srChunks, g.nchunks),
	}
	defer seg.end()
	if err := seg.start(); err != nil {
		return err
	}

	deadline := clk.Now().Add(cfg.GlobalTimeout)
	for {
		epoch := clk.Epoch()
		if err := e.abortErr(); err != nil {
			return fmt.Errorf("EC write %d B: %w", len(data), err)
		}
		if _, err := seg.pump(); err != nil {
			return err
		}
		if seg.done {
			return seg.end()
		}
		if clk.Now().After(deadline) {
			return fmt.Errorf("%w: EC write %d B", errGlobalTimeout, len(data))
		}
		clk.WaitNotify(epoch, cfg.PollInterval)
	}
}

// ReceiveEC receives one erasure-coded Write into
// mr[offset:offset+size], using scratch for parity submessages
// (scratch must hold L·m·chunk bytes). The receiver polls the
// bitmaps, decodes submessages in place as soon as they are
// recoverable, and on fallback-timeout expiry NACKs the missing
// chunks of unrecoverable submessages (§4.1.2), then again every RTO.
func (e *Endpoint) ReceiveEC(mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	cfg := e.Cfg
	clk := e.clock()
	g := newECGeometry(size, e.QP.Config().ChunkBytes, cfg.K, cfg.M)
	if need := uint64(g.L * g.parityBytes()); scratch.Span() < need {
		return fmt.Errorf("reliability: parity scratch %d B, need %d", scratch.Span(), need)
	}
	seg := recvSeg{
		e: e, idx: -1, g: g,
		mr: mr, base: offset, size: size, scratch: scratch,
		subs: scratchSlice(&e.scr.subs, g.L),
	}
	if err := seg.post(); err != nil {
		return fmt.Errorf("reliability: EC receive: %w", err)
	}

	start := clk.Now()
	nextNack := start.Add(cfg.fto()) // FTO armed at posting (§4.1.2)
	deadline := start.Add(cfg.GlobalTimeout)
	for {
		// Snapshot BEFORE probing recoverability: submessage
		// completions notify the clock, so the wait below wakes at the
		// exact delivery that makes recovery possible.
		epoch := clk.Epoch()
		if seg.recoverAll() {
			seg.finish()
			return nil
		}
		if err := e.abortErr(); err != nil {
			seg.abandon()
			return fmt.Errorf("EC receive %d B: %w", size, err)
		}
		now := clk.Now()
		if now.After(deadline) {
			seg.abandon()
			return fmt.Errorf("%w: EC receive %d B", errGlobalTimeout, size)
		}
		if now.After(nextNack) {
			seg.nack()
			nextNack = now.Add(cfg.rto())
		}
		clk.WaitNotify(epoch, cfg.PollInterval)
	}
}
