// Package core is the SDR SDK — the paper's primary contribution
// (§3): a middleware that extends unreliable RDMA transports with
// arbitrary-length messaging and a partial message completion bitmap,
// so reliability algorithms can be layered in software while the
// packet progress engine stays offloadable.
//
// The Go API maps to the paper's Table 1 as follows:
//
//	ctx = context_create(...)      → NewContext(dev, cfg)
//	qp = qp_create(ctx, ...)       → ctx.NewQP(...)
//	qp_info_get(qp, info)          → qp.Info()
//	qp_connect(qp, remote)         → qp.Connect(wire, oob, sideA, info)
//	mr = mr_reg(ctx, addr, len)    → ctx.RegMR(buf)
//	send_stream_start(qp, wr, &h)  → qp.SendStreamStart(size, imm)
//	send_stream_continue(h, wr)    → h.Continue(offset, data)
//	send_stream_end(h)             → h.End()
//	send_post(qp, wr, &h)          → qp.SendPost(data, imm)
//	send_poll(h)                   → h.Poll()
//	recv_post(qp, wr, &h)          → qp.RecvPost(mr, offset, size)
//	recv_bitmap_get(h, &bm, &len)  → h.Bitmap()
//	recv_imm_get(h, &imm)          → h.Imm()
//	recv_complete(h)               → h.Complete()
package core

import (
	"fmt"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/wan"
)

// Config parameterizes an SDR context (§3.2.2, §3.2.4, §3.3, §3.4).
type Config struct {
	// MTU is the wire packet payload size (default 4 KiB).
	MTU int
	// ChunkBytes is the frontend bitmap resolution: one bit covers
	// ChunkBytes/MTU packets (default 64 KiB = 16 packets). Must be a
	// multiple of MTU.
	ChunkBytes int
	// MaxMsgBytes is the per-slot maximum message size M; receive slot
	// i owns root-mkey offsets [i·M, i·M+M) (default 16 MiB).
	MaxMsgBytes int
	// MsgIDBits, PktOffsetBits and UserImmBits split the 32-bit
	// transport immediate (§3.2.4; default 10+18+4). Alternative
	// splits such as 8+22+2 support larger messages.
	MsgIDBits, PktOffsetBits, UserImmBits int
	// Generations is the number of internal QP sets protecting against
	// late packets across message-ID wraparound (§3.3.2; default 4).
	Generations int
	// Channels is the number of parallel transport QPs per generation;
	// packets round-robin across channels and each channel's CQ is
	// polled by its own DPA worker (§3.4.1; default 4).
	Channels int
	// CQDepth bounds each channel completion queue (default 4096).
	CQDepth int
	// Clock drives every timed behaviour of the deployment (nil =
	// shared real clock). With a clock.Virtual, the context switches
	// its DPA workers to synchronous completion processing and the
	// whole functional stack runs in deterministic virtual time.
	Clock clock.Clock
}

// WithDefaults fills zero fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.MTU == 0 {
		c.MTU = wan.DefaultMTU
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 16 * c.MTU
	}
	if c.MaxMsgBytes == 0 {
		c.MaxMsgBytes = 16 << 20
	}
	if c.MsgIDBits == 0 && c.PktOffsetBits == 0 && c.UserImmBits == 0 {
		c.MsgIDBits, c.PktOffsetBits, c.UserImmBits = 10, 18, 4
	}
	if c.Generations == 0 {
		c.Generations = 4
	}
	if c.Channels == 0 {
		c.Channels = 4
	}
	if c.CQDepth == 0 {
		c.CQDepth = 4096
	}
	return c
}

// validate reports configuration errors.
func (c Config) validate() error {
	switch {
	case c.MTU <= 0:
		return fmt.Errorf("sdr: MTU %d <= 0", c.MTU)
	case c.ChunkBytes < c.MTU || c.ChunkBytes%c.MTU != 0:
		return fmt.Errorf("sdr: chunk size %d must be a positive multiple of MTU %d (§3.1.1)", c.ChunkBytes, c.MTU)
	case c.MaxMsgBytes < c.MTU:
		return fmt.Errorf("sdr: max message size %d below MTU", c.MaxMsgBytes)
	case c.MsgIDBits+c.PktOffsetBits+c.UserImmBits != 32:
		return fmt.Errorf("sdr: immediate split %d+%d+%d != 32 bits (§3.2.4)",
			c.MsgIDBits, c.PktOffsetBits, c.UserImmBits)
	case c.MsgIDBits < 1 || c.PktOffsetBits < 1:
		return fmt.Errorf("sdr: immediate split needs at least 1 bit for message ID and offset")
	case c.UserImmBits != 0 && c.UserImmBits != 2 && c.UserImmBits != 4 && c.UserImmBits != 8:
		return fmt.Errorf("sdr: user-imm fragment width %d must be 0, 2, 4 or 8 bits", c.UserImmBits)
	case c.Generations < 1:
		return fmt.Errorf("sdr: need at least one generation")
	case c.Channels < 1:
		return fmt.Errorf("sdr: need at least one channel")
	case c.maxPackets() > 1<<uint(c.PktOffsetBits):
		return fmt.Errorf("sdr: max message %d B needs %d packets, exceeding %d offset bits",
			c.MaxMsgBytes, c.maxPackets(), c.PktOffsetBits)
	}
	return nil
}

// slots returns the number of in-flight message descriptors per QP,
// 2^MsgIDBits (1024 for the default split).
func (c Config) slots() int { return 1 << uint(c.MsgIDBits) }

// maxPackets returns the packet count of a maximum-size message.
func (c Config) maxPackets() int { return (c.MaxMsgBytes + c.MTU - 1) / c.MTU }

// PacketsPerChunk returns the bitmap resolution in packets.
func (c Config) PacketsPerChunk() int { return c.ChunkBytes / c.MTU }

// immFragments returns how many packets carry distinct user-immediate
// fragments (32 bits / UserImmBits).
func (c Config) immFragments() int {
	if c.UserImmBits == 0 {
		return 0
	}
	return 32 / c.UserImmBits
}

// DecodeImm splits a 32-bit transport immediate into (message ID,
// packet offset, user-immediate fragment) under this configuration's
// bit split — the inverse of what the send path encodes (§3.2.4).
// Observability tooling (e.g. netem drop accounting) uses it to map
// wire packets back onto bitmap chunks without re-implementing the
// layout.
func (c Config) DecodeImm(imm uint32) (msgID, pktOff uint32, frag uint8) {
	return newImmCodec(c).decode(imm)
}

// immCodec packs (message ID, packet offset, user-imm fragment) into
// the 32-bit transport immediate: msgID in the high bits, the fragment
// in the low bits (§3.2.4). The message ID takes whatever the other two
// leave, so only their widths are kept.
type immCodec struct {
	offBits, immBits uint
}

func newImmCodec(c Config) immCodec {
	return immCodec{uint(c.PktOffsetBits), uint(c.UserImmBits)}
}

func (ic immCodec) encode(msgID, pktOff uint32, frag uint8) uint32 {
	return msgID<<(ic.offBits+ic.immBits) |
		(pktOff&(1<<ic.offBits-1))<<ic.immBits |
		uint32(frag)&(1<<ic.immBits-1)
}

func (ic immCodec) decode(imm uint32) (msgID, pktOff uint32, frag uint8) {
	msgID = imm >> (ic.offBits + ic.immBits)
	pktOff = (imm >> ic.immBits) & (1<<ic.offBits - 1)
	frag = uint8(imm & (1<<ic.immBits - 1))
	return
}
