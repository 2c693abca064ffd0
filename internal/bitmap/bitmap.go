// Package bitmap implements the two-level completion bitmap at the heart
// of the SDR middleware (paper §3.1.1, §3.2.1).
//
// The backend maintains a per-packet bitmap for each in-flight message;
// when every packet of a chunk (a contiguous block of packetsPerChunk
// MTUs) has arrived, the corresponding bit of the frontend chunk bitmap
// is set. The reliability layer above SDR polls only the chunk bitmap.
//
// All operations are safe for concurrent use: on real hardware the
// per-packet bitmap lives in DPA memory and is updated by many DPA
// worker threads in parallel (§3.4.2); here the workers are goroutines.
package bitmap

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
)

// Bitmap is a fixed-size atomic bitset.
//
// Completion queries are taken off the per-poll critical path: Full
// and Count are O(1) via an atomic remaining-bits counter, and
// firstZero/CumulativeCount carry a monotonic word hint so repeated
// polls resume where the previous scan stopped instead of rescanning
// from word 0. The hint assumes the write side only *sets* bits while
// scanners run (the SDR delivery pattern); Reset rewinds it.
type Bitmap struct {
	words []atomic.Uint64
	nbits int
	// remaining counts still-clear bits; 0 means full.
	remaining atomic.Int64
	// scanHint is a lower bound on the first word that may hold a
	// clear bit: every word below it has been observed all-ones.
	scanHint atomic.Uint64
}

// New creates a bitmap holding nbits bits, all clear.
func New(nbits int) *Bitmap {
	if nbits < 0 {
		panic("bitmap: negative size")
	}
	b := &Bitmap{
		words: make([]atomic.Uint64, (nbits+63)/64),
		nbits: nbits,
	}
	b.remaining.Store(int64(nbits))
	return b
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.nbits }

// Set sets bit i and reports whether this call was the one that set it
// (false if it was already set, e.g. a duplicated packet).
func (b *Bitmap) Set(i int) bool {
	if i < 0 || i >= b.nbits {
		panic("bitmap: Set out of range")
	}
	mask := uint64(1) << (uint(i) % 64)
	w := &b.words[i/64]
	// CAS loop instead of Or(mask): go1.24.0 miscompiles the
	// value-returning atomic Or on amd64 (golang/go#71600, fixed in
	// 1.24.1), and we need the old value to keep `remaining` exact.
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			b.remaining.Add(-1)
			return true
		}
	}
}

// Test reports whether bit i is set.
func (b *Bitmap) Test(i int) bool {
	if i < 0 || i >= b.nbits {
		panic("bitmap: Test out of range")
	}
	return b.words[i/64].Load()&(uint64(1)<<(uint(i)%64)) != 0
}

// Reset clears every bit. Not atomic with respect to concurrent setters;
// callers must quiesce the bitmap first (SDR does this when recycling a
// message slot).
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i].Store(0)
	}
	b.remaining.Store(int64(b.nbits))
	b.scanHint.Store(0)
}

// Count returns the number of set bits. O(1): derived from the
// remaining-bits counter the setters maintain.
func (b *Bitmap) Count() int {
	return b.nbits - int(b.remaining.Load())
}

// Full reports whether every bit is set. O(1) — this is the query the
// reliability layer issues on every poll tick (§3.1.1), so it must not
// scan the words.
func (b *Bitmap) Full() bool { return b.remaining.Load() == 0 }

// raiseHint records that every word below w has been observed all-ones.
func (b *Bitmap) raiseHint(w int) {
	for {
		cur := b.scanHint.Load()
		if cur >= uint64(w) || b.scanHint.CompareAndSwap(cur, uint64(w)) {
			return
		}
	}
}

// firstZero returns the index of the lowest clear bit, or -1 if the
// bitmap is full. Reliability layers use this to locate the first
// missing chunk (the cumulative-ACK point). The scan starts at the
// monotonic word hint and advances it past words it saw full, so a
// poll loop over a message delivered mostly in order does O(1) work
// per poll instead of rescanning the whole prefix.
func (b *Bitmap) firstZero() int {
	nw := len(b.words)
	start := int(b.scanHint.Load())
	if start > nw {
		start = nw
	}
	for w := start; w < nw; w++ {
		v := b.words[w].Load()
		if v != ^uint64(0) {
			if w > start {
				b.raiseHint(w)
			}
			i := w*64 + bits.TrailingZeros64(^v)
			if i < b.nbits {
				return i
			}
			return -1 // only padding bits beyond nbits are clear
		}
	}
	if nw > start {
		b.raiseHint(nw)
	}
	return -1
}

// CumulativeCount returns the length of the set-bit prefix: the highest
// n such that bits [0,n) are all set. This is the paper's cumulative-ACK
// value (§4.1.1).
func (b *Bitmap) CumulativeCount() int {
	fz := b.firstZero()
	if fz < 0 {
		return b.nbits
	}
	return fz
}

// Missing appends the indices of clear bits in [from, to) to dst and
// returns it. Reliability layers use this to build retransmission lists
// and NACKs. It walks whole words, skipping all-ones words with a
// single load instead of testing 64 bits one atomic read at a time.
func (b *Bitmap) Missing(dst []int, from, to int) []int {
	if from < 0 {
		from = 0
	}
	if to > b.nbits {
		to = b.nbits
	}
	if from >= to {
		return dst
	}
	wFrom := from / 64
	wTo := (to + 63) / 64
	for w := wFrom; w < wTo; w++ {
		inv := ^b.words[w].Load()
		if w == wFrom {
			inv &^= (uint64(1) << (uint(from) % 64)) - 1
		}
		if inv == 0 {
			continue // fully delivered word
		}
		base := w * 64
		for ; inv != 0; inv &= inv - 1 {
			i := base + bits.TrailingZeros64(inv)
			if i >= to {
				return dst
			}
			dst = append(dst, i)
		}
	}
	return dst
}

// Snapshot copies the raw words into dst (allocating if needed) and
// returns a byte-view of the bitmap, LSB-first within each byte. This
// is the representation carried inside selective-ACK payloads.
func (b *Bitmap) Snapshot(dst []byte) []byte {
	need := (b.nbits + 7) / 8
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	w := 0
	for ; (w+1)*8 <= need; w++ {
		binary.LittleEndian.PutUint64(dst[w*8:], b.words[w].Load())
	}
	if w*8 < need {
		v := b.words[w].Load()
		for off := w * 8; off < need; off++ {
			dst[off] = byte(v >> (8 * uint(off-w*8)))
		}
	}
	return dst
}

// Message is the two-level (packet, chunk) completion structure for one
// in-flight SDR message. The packet level is the "backend" bitmap that
// DPA workers update per CQE; the chunk level is the "frontend" bitmap
// the user polls through RecvBitmapGet.
type Message struct {
	Packets         *Bitmap
	Chunks          *Bitmap
	packetsPerChunk int
	// perChunkCount[i] counts packets received in chunk i so the final
	// packet of a chunk can flip the frontend bit without rescanning.
	perChunkCount []atomic.Int32
	chunkSizes    []int32 // packets in each chunk (last may be short)
}

// NewMessage builds the two-level bitmap for a message of totalPackets
// MTU-sized packets grouped into chunks of packetsPerChunk packets
// (the last chunk may be shorter).
func NewMessage(totalPackets, packetsPerChunk int) *Message {
	if totalPackets < 0 || packetsPerChunk <= 0 {
		panic("bitmap: invalid message geometry")
	}
	nchunks := (totalPackets + packetsPerChunk - 1) / packetsPerChunk
	m := &Message{
		Packets:         New(totalPackets),
		Chunks:          New(nchunks),
		packetsPerChunk: packetsPerChunk,
		perChunkCount:   make([]atomic.Int32, nchunks),
		chunkSizes:      make([]int32, nchunks),
	}
	for c := 0; c < nchunks; c++ {
		sz := packetsPerChunk
		if rem := totalPackets - c*packetsPerChunk; rem < sz {
			sz = rem
		}
		m.chunkSizes[c] = int32(sz)
	}
	return m
}

// MarkPacket records arrival of packet pkt and returns
// (newlySet, chunkCompleted): newlySet is false for duplicate packets
// (which are otherwise ignored); chunkCompleted is true exactly once
// per chunk, when its final missing packet arrives — that caller is
// the DPA worker responsible for updating the host-side chunk bitmap
// over PCIe (§3.4.2).
func (m *Message) MarkPacket(pkt int) (newlySet, chunkCompleted bool) {
	if !m.Packets.Set(pkt) {
		return false, false // duplicate
	}
	chunk := pkt / m.packetsPerChunk
	if m.perChunkCount[chunk].Add(1) == m.chunkSizes[chunk] {
		m.Chunks.Set(chunk)
		return true, true
	}
	return true, false
}

// Complete reports whether every packet of the message has arrived.
func (m *Message) Complete() bool { return m.Chunks.Full() }

// Reset clears both levels for slot reuse. Callers must quiesce
// concurrent writers first (SDR's generation mechanism guarantees this).
func (m *Message) Reset() {
	m.Packets.Reset()
	m.Chunks.Reset()
	for i := range m.perChunkCount {
		m.perChunkCount[i].Store(0)
	}
}
