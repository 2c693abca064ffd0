package nicsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// errMkeyViolation is returned when a DMA write misses its target:
// unknown key, out-of-bounds offset, or an unpopulated indirect entry.
var errMkeyViolation = errors.New("nicsim: memory key violation")

// MemoryTarget is anything a remote Write can land in.
type MemoryTarget interface {
	// DMAWrite stores data at offset. Implementations must be safe for
	// concurrent writes to disjoint ranges (the NIC writes packets from
	// multiple channels in parallel).
	DMAWrite(offset uint64, data []byte) error
}

// MR is a registered memory region backed by a user buffer.
type MR struct {
	registration
	buf []byte
}

// Key returns the region's rkey/lkey (the simulator does not
// distinguish them).
func (m *MR) Key() uint32 { return m.key }

// Bytes exposes the underlying buffer (the application owns it; this
// is the zero-copy property).
func (m *MR) Bytes() []byte { return m.buf }

// Span returns the addressable byte range.
func (m *MR) Span() uint64 { return uint64(len(m.buf)) }

// DMAWrite implements MemoryTarget. The bounds check is overflow-safe:
// offset+len(data) can wrap uint64 for hostile offsets near 2^64.
func (m *MR) DMAWrite(offset uint64, data []byte) error {
	span := uint64(len(m.buf))
	if offset > span || uint64(len(data)) > span-offset {
		return fmt.Errorf("%w: write [%d,+%d) beyond MR of %d bytes",
			errMkeyViolation, offset, len(data), len(m.buf))
	}
	copy(m.buf[offset:], data)
	return nil
}

// NullMR discards payloads while still letting the NIC generate
// completions — the simulator's ibv_alloc_null_mr() (§3.3.2 stage 1).
type NullMR struct {
	registration
	// Discarded counts bytes dropped, for observability in tests.
	Discarded atomic.Uint64
}

// DMAWrite implements MemoryTarget by discarding the payload.
func (n *NullMR) DMAWrite(_ uint64, data []byte) error {
	n.Discarded.Add(uint64(len(data)))
	return nil
}

// IndirectMR is the zero-based root memory key of §3.2.2: a table of
// entries, each spanning entryBytes, that forwards writes to other
// memory targets. Message i of an SDR QP occupies the offset range
// [i·M, i·M + M). An entry that was never set, or was cleared, forwards
// to the unset target chosen at allocation: SDR passes its NULL key, so
// every slot starts retired (§3.3.2) without a store per entry, and
// retiring a slot is clearing it. The key spans n entries, but only
// those up to the highest one ever set hold storage.
type IndirectMR struct {
	registration
	entryBytes uint64
	n          int
	entries    Table[indirectEntry]
	// unset receives writes to unset entries at their within-entry
	// offset; nil makes them fail loudly.
	unset MemoryTarget
	// recent caches the two most recently used distinct entries; mru
	// is the index of the newer. Entry values are immutable once
	// published, so repeated stores share one object instead of
	// allocating per slot: a receive that reposts the same buffer, or
	// two that alternate, stores the cached entry. Racing stores can
	// only cost a miss.
	recent [2]atomic.Pointer[indirectEntry]
	mru    atomic.Uint32
}

type indirectEntry struct {
	target MemoryTarget
	// base is added to the within-entry offset before forwarding,
	// allowing a message to land at an offset inside the user MR.
	base uint64
}

// Key returns the root key.
func (ix *IndirectMR) Key() uint32 { return ix.key }

// SetEntry points slot i at target (with a base offset inside it).
// Passing nil clears the slot: writes to it go to the unset target
// again — the NULL key for an SDR QP, which is how a retired slot
// absorbs late packets.
func (ix *IndirectMR) SetEntry(i int, target MemoryTarget, base uint64) {
	if i < 0 || i >= ix.n {
		panic(fmt.Sprintf("nicsim: indirect entry %d out of range [0,%d)", i, ix.n))
	}
	if target == nil {
		ix.entries.Store(i, nil)
		return
	}
	ix.entries.Store(i, ix.entryFor(target, base))
}

// entryFor returns the shared entry object for (target, base), from the
// cache when one of the last two pairs used is the same.
func (ix *IndirectMR) entryFor(target MemoryTarget, base uint64) *indirectEntry {
	for i := range ix.recent {
		if e := ix.recent[i].Load(); e != nil && e.target == target && e.base == base {
			ix.mru.Store(uint32(i))
			return e
		}
	}
	e := &indirectEntry{target: target, base: base}
	victim := 1 - ix.mru.Load()
	ix.recent[victim].Store(e)
	ix.mru.Store(victim)
	return e
}

// DMAWrite implements MemoryTarget with offset translation.
func (ix *IndirectMR) DMAWrite(offset uint64, data []byte) error {
	idx := offset / ix.entryBytes
	inner := offset % ix.entryBytes
	if idx >= uint64(ix.n) {
		return fmt.Errorf("%w: indirect offset %d beyond %d entries",
			errMkeyViolation, offset, ix.n)
	}
	if uint64(len(data)) > ix.entryBytes-inner { // inner < entryBytes, no wrap
		return fmt.Errorf("%w: write crosses indirect entry boundary", errMkeyViolation)
	}
	e := ix.entries.Load(int(idx))
	if e == nil {
		if ix.unset == nil {
			return fmt.Errorf("%w: indirect entry %d not populated", errMkeyViolation, idx)
		}
		return ix.unset.DMAWrite(inner, data)
	}
	return e.target.DMAWrite(e.base+inner, data)
}

// Table maps indices to *T: the storage shape of a table that has a
// fixed logical size but should cost only the entries its traffic
// touches — a device's memory keys, a root key's entries, an SDR QP's
// message slots. A reader loads an entry lock-free with two atomic
// loads, the storage and then its cell; an index past the storage
// reads nil. Storage starts empty and doubles (from 8 cells) when a
// non-nil value is stored past its end, and the longer copy is
// published atomically. Every Store runs under the table's writer lock,
// the one a growth copies the cells under, so no store — a clear
// included — is lost to a concurrent growth. The zero Table is empty.
type Table[T any] struct {
	mu    sync.Mutex
	cells atomic.Pointer[[]atomic.Pointer[T]]
}

// Load returns entry i, or nil when i lies past the storage.
func (t *Table[T]) Load(i int) *T {
	if c := t.cells.Load(); c != nil && uint(i) < uint(len(*c)) {
		return (*c)[i].Load()
	}
	return nil
}

// Store sets entry i (i >= 0) to v, growing the storage when v is not
// nil and i lies past it; a nil past the storage is already in place.
func (t *Table[T]) Store(i int, v *T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var cells []atomic.Pointer[T]
	if c := t.cells.Load(); c != nil {
		cells = *c
	}
	if i >= len(cells) {
		if v == nil {
			return
		}
		n := max(8, 2*len(cells))
		for n <= i {
			n *= 2
		}
		grown := make([]atomic.Pointer[T], n)
		for j := range cells {
			grown[j].Store(cells[j].Load())
		}
		cells = grown
		t.cells.Store(&grown)
	}
	cells[i].Store(v)
}

// registration is one live entry of a device's memory table: the key
// the entry answers to and the region behind it. Every region type
// embeds one, so registering allocates nothing.
type registration struct {
	key    uint32
	target MemoryTarget
}

// A memory key is a table index in the low memIndexBits plus, above it,
// the generation of that index at registration time — the variant byte
// a real mkey carries. Deregistering bumps the index's generation
// before the index is reused, so the next tenant of the slot answers to
// a different key and a stale RC write still aimed at the old one
// misses instead of landing in the new tenant's memory. An index whose
// generations are used up is retired for good: no key ever resolves
// twice.
const (
	memIndexBits = 20
	memIndexMask = 1<<memIndexBits - 1
	memMaxGen    = 1<<(32-memIndexBits) - 1
)

// memTable is a device's key → target registry. The per-packet lookup
// on the DMA path is lock-free: a Table load and a key compare.
// Register and deregister run under the writer lock in O(1) — a slot
// store plus free-list bookkeeping — so its footprint follows the peak
// of live registrations, not how many there have ever been. Index 0 is
// never handed out (no valid key is 0); first-time keys are 1, 2, 3, ….
type memTable struct {
	mu    sync.Mutex
	slots Table[registration]
	// gens[i] is the generation index i's next registration gets; free
	// lists the deregistered indices that still have one. Writer-only.
	gens []uint32
	free []uint32
	live int
}

func newMemTable() *memTable {
	return &memTable{gens: make([]uint32, 1, 8)}
}

// register publishes r (embedded in target) under a fresh key.
func (t *memTable) register(r *registration, target MemoryTarget) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var idx uint32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		idx = uint32(len(t.gens))
		if idx > memIndexMask {
			panic("nicsim: memory table full")
		}
		t.gens = append(t.gens, 0)
	}
	r.key, r.target = t.gens[idx]<<memIndexBits|idx, target
	t.slots.Store(int(idx), r)
	t.live++
}

func (t *memTable) deregister(key uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := int(key & memIndexMask)
	if r := t.slots.Load(idx); r == nil || r.key != key {
		return
	}
	t.slots.Store(idx, nil)
	t.live--
	if t.gens[idx] < memMaxGen {
		t.gens[idx]++
		t.free = append(t.free, uint32(idx))
	}
}

func (t *memTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

func (t *memTable) lookup(key uint32) (MemoryTarget, bool) {
	r := t.slots.Load(int(key & memIndexMask))
	if r == nil || r.key != key {
		return nil, false
	}
	return r.target, true
}
