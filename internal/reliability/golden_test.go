package reliability

import (
	"hash/fnv"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
)

// goldenTuple is everything a transfer's simulated schedule determines:
// any change to what goes on the wire, or when, moves at least one
// field.
type goldenTuple struct {
	ElapsedNs   int64 // virtual time when the last transfer returned
	PacketsSent uint64
	// CtrlSent counts the receiver's control datagrams (B→A wire
	// packets): its ACKs, NACKs and plans. The sender sends no control
	// messages and the CTS rides the OOB channel, so a change that adds
	// or drops a control message moves this column even when the timing
	// happens to match.
	CtrlSent    uint64
	Retransmits uint64
	NacksSent   uint64
	LateReAcks  uint64
	// DoneWrites counts duplicate packets the receiving NIC DMA-wrote
	// into a message that was already complete (core.Stats.DoneWrites).
	DoneWrites uint64
	Switches   int
	RecvFNV    uint64 // FNV-1a over every received buffer, in order
}

// goldenCase is one pinned scenario: msgs sequential transfers of size
// bytes (never a chunk multiple, so the partial tail chunk is always
// exercised) on one session over a link dropping `drop` of the packets
// in both directions, data and control alike.
type goldenCase struct {
	name   string
	scheme string // a Transfer scheme name
	k, m   int
	size   int
	msgs   int
	drop   float64
	seed   int64
	want   goldenTuple
}

// TestReliabilityGoldenTuples pins the simulated behaviour of every
// scheme ACROSS COMMITS. TestVirtualDeterminism and the perftest
// determinism tests only compare runs inside one process, so a refactor
// that changes the wire schedule consistently passes them; a
// behaviour-preserving change must leave these literals untouched. They
// were last re-recorded when receives began retiring their slots at
// completion: the receiver sends its final ACK once, so CtrlSent fell
// and a lost final ACK now shows as late re-ACKs. The cases are chosen
// so that NACK-mode hole repair, the RTO sweep with backoff, in-place
// EC decode, the EC NACK fallback, late re-ACKs and adaptive ladder
// switches all fire (see the non-zero columns).
func TestReliabilityGoldenTuples(t *testing.T) {
	cases := []goldenCase{
		{name: "sr/1", scheme: "sr", size: 200_000, msgs: 3, drop: 0.05, seed: 1,
			want: goldenTuple{ElapsedNs: 54502640, PacketsSent: 0x2c4, CtrlSent: 0x37, Retransmits: 0x1e, NacksSent: 0x0, LateReAcks: 0x4, DoneWrites: 0x0, Switches: 0, RecvFNV: 0xc1077ac09622865}},
		{name: "sr/2", scheme: "sr", size: 200_000, msgs: 3, drop: 0.05, seed: 2,
			want: goldenTuple{ElapsedNs: 80369264, PacketsSent: 0x2cc, CtrlSent: 0x50, Retransmits: 0x20, NacksSent: 0x0, LateReAcks: 0x3, DoneWrites: 0x0, Switches: 0, RecvFNV: 0x1706b97648427be5}},
		{name: "sr-nack/1", scheme: "sr-nack", size: 200_000, msgs: 3, drop: 0.05, seed: 1,
			want: goldenTuple{ElapsedNs: 42285040, PacketsSent: 0x320, CtrlSent: 0x66, Retransmits: 0x35, NacksSent: 0x0, LateReAcks: 0x3f, DoneWrites: 0x0, Switches: 0, RecvFNV: 0xc1077ac09622865}},
		{name: "sr-nack/2", scheme: "sr-nack", size: 200_000, msgs: 3, drop: 0.05, seed: 2,
			want: goldenTuple{ElapsedNs: 44202352, PacketsSent: 0x334, CtrlSent: 0x50, Retransmits: 0x3a, NacksSent: 0x0, LateReAcks: 0x27, DoneWrites: 0x0, Switches: 0, RecvFNV: 0x1706b97648427be5}},
		// One submessage: 16 real chunks of a (16,4) code, partial tail.
		{name: "ec-L1/1", scheme: "ec", k: 16, m: 4, size: 16*4096 - 1234, msgs: 3, drop: 0.03, seed: 1,
			want: goldenTuple{ElapsedNs: 19343892, PacketsSent: 0xed, CtrlSent: 0x3, Retransmits: 0x0, NacksSent: 0x0, LateReAcks: 0x0, DoneWrites: 0x0, Switches: 0, RecvFNV: 0x232ecd3cae7e85c2}},
		{name: "ec-L1/2", scheme: "ec", k: 16, m: 4, size: 16*4096 - 1234, msgs: 3, drop: 0.03, seed: 2,
			want: goldenTuple{ElapsedNs: 19186860, PacketsSent: 0xed, CtrlSent: 0x3, Retransmits: 0x0, NacksSent: 0x0, LateReAcks: 0x0, DoneWrites: 0x0, Switches: 0, RecvFNV: 0xc2d42919fcbe2942}},
		// Four submessages of a (4,2) code; the tail submessage holds 3
		// real chunks (one partial) plus one virtual zero chunk.
		{name: "ec-L4/1", scheme: "ec", k: 4, m: 2, size: 60_000, msgs: 3, drop: 0.05, seed: 1,
			want: goldenTuple{ElapsedNs: 19079580, PacketsSent: 0x111, CtrlSent: 0x17, Retransmits: 0x0, NacksSent: 0x0, LateReAcks: 0x14, DoneWrites: 0x0, Switches: 0, RecvFNV: 0xd7d1ff6cc63361c5}},
		{name: "ec-L4/2", scheme: "ec", k: 4, m: 2, size: 60_000, msgs: 3, drop: 0.05, seed: 2,
			want: goldenTuple{ElapsedNs: 26487536, PacketsSent: 0x119, CtrlSent: 0x4, Retransmits: 0x2, NacksSent: 0x1, LateReAcks: 0x0, DoneWrites: 0x0, Switches: 0, RecvFNV: 0x878bace32cc1b585}},
		// Weak code under heavy loss: the NACK fallback must fire.
		{name: "ec-weak/1", scheme: "ec", k: 4, m: 1, size: 100_000, msgs: 2, drop: 0.15, seed: 1,
			want: goldenTuple{ElapsedNs: 49349996, PacketsSent: 0x166, CtrlSent: 0x7, Retransmits: 0x1b, NacksSent: 0x4, LateReAcks: 0x1, DoneWrites: 0xa, Switches: 0, RecvFNV: 0x6ed1b8d1a8807a5}},
		{name: "ec-weak/2", scheme: "ec", k: 4, m: 1, size: 100_000, msgs: 2, drop: 0.15, seed: 2,
			want: goldenTuple{ElapsedNs: 48344520, PacketsSent: 0x160, CtrlSent: 0x8, Retransmits: 0x19, NacksSent: 0x4, LateReAcks: 0x2, DoneWrites: 0x6, Switches: 0, RecvFNV: 0xbdb0d91cc63a52e5}},
		{name: "adaptive/1", scheme: "adaptive", size: 1<<20 + 777, msgs: 2, drop: 0.12, seed: 1,
			want: goldenTuple{ElapsedNs: 107232792, PacketsSent: 0xd58, CtrlSent: 0x19a, Retransmits: 0xab, NacksSent: 0x12, LateReAcks: 0x1b, DoneWrites: 0xf, Switches: 6, RecvFNV: 0x93a18232bcb77178}},
		{name: "adaptive/2", scheme: "adaptive", size: 1<<20 + 777, msgs: 2, drop: 0.12, seed: 2,
			want: goldenTuple{ElapsedNs: 115249520, PacketsSent: 0xe63, CtrlSent: 0x1e0, Retransmits: 0xed, NacksSent: 0x16, LateReAcks: 0x29, DoneWrites: 0xa, Switches: 5, RecvFNV: 0xd524e7e8d969a038}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runGolden(t, c); got != c.want {
				t.Fatalf("simulated behaviour changed\n  got  %#v\n  want %#v", got, c.want)
			}
		})
	}
}

// goldenBps serializes both directions at 2 Gbit/s (≈4 µs per 1 KiB
// packet), so the elapsed column resolves packet order and control
// message sizes instead of rounding to the poll cadence.
const goldenBps = 2e9

func runGolden(t *testing.T, c goldenCase) goldenTuple {
	t.Helper()
	vc := clock.NewVirtual()
	relCfg, err := testRelCfg().ForScheme(c.scheme)
	if err != nil {
		t.Fatal(err)
	}
	if c.k > 0 {
		relCfg.K, relCfg.M = c.k, c.m
	}
	lat := 2 * time.Millisecond
	s, err := NewSession(testCoreCfg(vc), relCfg,
		fabric.Config{Latency: lat, BandwidthBps: goldenBps, DropProb: c.drop, Seed: c.seed},
		fabric.Config{Latency: lat, BandwidthBps: goldenBps, DropProb: c.drop, Seed: c.seed + 1000},
		lat)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr := newTransfer(t, s, c.scheme, c.size)
	sum := fnv.New64a()
	for i := 0; i < c.msgs; i++ {
		// Fresh buffers per message: a late duplicate must carry the
		// bytes of the message it belongs to.
		sum.Write(driveMsg(t, tr, pattern(c.size, byte(int(c.seed)*16+i))).Buf)
	}
	elapsed := vc.Elapsed()
	checkCtrlTraffic(t, s)
	switches := 0
	if ad := tr.Adaptor(); ad != nil {
		switches = len(ad.Switches())
	}
	return goldenTuple{
		ElapsedNs:   elapsed.Nanoseconds(),
		PacketsSent: s.Pair.A.QP.Stats().PacketsSent,
		CtrlSent:    s.Pair.Link.BA.Tx.Load(),
		Retransmits: s.A.Retransmits.Load(),
		NacksSent:   s.B.NacksSent.Load(),
		LateReAcks:  s.B.LateReAcks.Load(),
		DoneWrites:  s.Pair.B.QP.Stats().DoneWrites,
		Switches:    switches,
		RecvFNV:     sum.Sum64(),
	}
}
