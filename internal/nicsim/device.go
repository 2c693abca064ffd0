package nicsim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Wire is the transmit side of a connection: the fabric implements it
// with loss/delay/reorder injection.
type Wire interface {
	// Send hands a packet to the wire. Delivery is asynchronous and
	// unreliable unless the wire says otherwise.
	Send(pkt *Packet)
}

// Deliverer is the receive side of a hop: anything packets can be
// handed to on arrival. *Device is the terminal Deliverer; forwarding
// stages (netem queues, impairment pipelines) implement it too, so
// multi-hop paths compose by chaining Deliverers.
type Deliverer interface {
	// Deliver hands an inbound packet to this stage.
	Deliver(pkt *Packet)
}

// packetSink is implemented by each QP's receive path.
type packetSink interface {
	recvPacket(pkt *Packet)
}

// Device is one simulated NIC.
type Device struct {
	name string
	mem  *memTable
	mu   sync.Mutex // serializes QP table writers
	// qps is the QP table indexed by QPN (a new QP's QPN is the table's
	// length, from 1, slot 0 unused). Delivery reads it with one
	// atomic load — no lock on the per-packet path. A create appends in
	// place, doubling the backing array when it is full, and publishes
	// the longer header: the new slot lies past the length of every
	// header already published, so no reader can index it before the
	// store. A destroy, which changes a slot readers can see, publishes
	// a fresh copy.
	qps atomic.Pointer[[]packetSink]
	// RxPackets counts packets delivered to this device.
	RxPackets atomic.Uint64
	// RxDropNoQP counts packets addressed to unknown QPs.
	RxDropNoQP atomic.Uint64

	// serial marks a device whose sends and deliveries are already
	// serialized externally (a virtual-clock deployment, where every
	// actor and engine callback runs one at a time under the scheduler
	// baton). QPs skip their per-packet mutexes when it is set — at
	// line rate the uncontended lock/unlock pair is a measurable share
	// of the per-packet budget. See SetSerial.
	serial bool
}

// NewDevice creates a NIC simulator instance.
func NewDevice(name string) *Device {
	d := &Device{name: name, mem: newMemTable()}
	empty := make([]packetSink, 1)
	d.qps.Store(&empty)
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// SetSerial declares that all QP operations on this device — sends and
// inbound deliveries alike — are serialized by an external scheduler,
// letting QPs skip their per-packet mutexes. Only sound on
// virtual-clock deployments, where every producer runs under the
// discrete-event scheduler baton (the same argument that makes a CQ's
// serial sink safe). It is a construction-time input — the kind of the
// clock the device's deployment is built on — set once, before any
// traffic flows, from the goroutine constructing the deployment;
// toggling mid-flight is a data race. core.NewContext is the one
// in-tree caller; it stays a method because benchmark/drives.go sets it
// for its isolated UC-delivery drive.
func (d *Device) SetSerial(serial bool) { d.serial = serial }

// RegMR registers buf and returns the memory region handle.
func (d *Device) RegMR(buf []byte) *MR {
	mr := &MR{buf: buf}
	d.mem.register(&mr.registration, mr)
	return mr
}

// AllocNullMR allocates a payload-discarding region (§3.3.2).
func (d *Device) AllocNullMR() *NullMR {
	n := &NullMR{}
	d.mem.register(&n.registration, n)
	return n
}

// AllocIndirectMR allocates a zero-based indirect (root) memory key
// with entries slots of entryBytes each (§3.2.2). Every entry starts
// unset: a write to an unset entry lands in unset at its within-entry
// offset (SDR passes its NULL key), or fails with a key violation when
// unset is nil. Entry storage is allocated as SetEntry reaches it.
func (d *Device) AllocIndirectMR(entries int, entryBytes uint64, unset MemoryTarget) *IndirectMR {
	if entries <= 0 || entryBytes == 0 {
		panic("nicsim: invalid indirect MR geometry")
	}
	ix := &IndirectMR{entryBytes: entryBytes, n: entries, unset: unset}
	d.mem.register(&ix.registration, ix)
	return ix
}

// DeregMR removes a memory registration by key.
func (d *Device) DeregMR(key uint32) { d.mem.deregister(key) }

// NumMRs returns the count of live memory registrations — the leak
// observable pooled-deployment tests watch: session-scoped buffers
// must not accumulate in the table across thousands of leases.
func (d *Device) NumMRs() int { return d.mem.size() }

// dmaWrite resolves key and writes data — the RDMA engine's receive
// data path.
func (d *Device) dmaWrite(key uint32, offset uint64, data []byte) error {
	target, ok := d.mem.lookup(key)
	if !ok {
		return fmt.Errorf("%w: unknown rkey %d on %s", errMkeyViolation, key, d.name)
	}
	return target.DMAWrite(offset, data)
}

func (d *Device) addQP(sink packetSink) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	qps := *d.qps.Load()
	next := append(qps, sink)
	d.qps.Store(&next)
	return uint32(len(qps))
}

// DestroyQP removes a queue pair; packets addressed to it are dropped.
func (d *Device) DestroyQP(qpn uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.qps.Load()
	if qpn >= uint32(len(old)) {
		return
	}
	next := slices.Clone(old)
	next[qpn] = nil
	d.qps.Store(&next)
}

// Deliver injects an inbound packet — called by the fabric. The device
// is the terminal hop: once the QP's receive path returns (or the
// packet misses every QP), a pooled envelope is recycled.
func (d *Device) Deliver(pkt *Packet) {
	d.RxPackets.Add(1)
	qps := *d.qps.Load()
	var sink packetSink
	if n := pkt.DstQPN; n < uint32(len(qps)) {
		sink = qps[n]
	}
	if sink == nil {
		d.RxDropNoQP.Add(1)
		pkt.release()
		return
	}
	sink.recvPacket(pkt)
	pkt.release()
}
