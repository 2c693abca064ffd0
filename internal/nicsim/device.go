package nicsim

import (
	"fmt"
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

// qpSlot is a QP's entry in its device's QP table: the QP itself as the
// table's packetSink, and the QPN it answers to. Every QP type embeds
// one, so entering a QP in the table allocates nothing.
type qpSlot struct {
	sink packetSink
	qpn  uint32
}

// Device is one simulated NIC.
type Device struct {
	name string
	mem  memTable
	// qps is the QP table indexed by QPN. Delivery reads it lock-free;
	// a create stores the QP's own slot, allocating only when the table
	// doubles, and a destroy clears the slot in place. lastQPN is the
	// QPN handed out last: QPNs run from 1, and 0 is never a QP's.
	qps     Table[qpSlot]
	lastQPN atomic.Uint32
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
	// Index 0 of the memory table is never handed out (no valid key is 0).
	return &Device{name: name, mem: memTable{gens: make([]uint32, 1, 8)}}
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

// addQP enters sink, the QP that embeds slot, in the QP table under
// the next QPN.
func (d *Device) addQP(slot *qpSlot, sink packetSink) {
	slot.sink, slot.qpn = sink, d.lastQPN.Add(1)
	d.qps.Store(int(slot.qpn), slot)
}

// DestroyQP removes a queue pair; packets addressed to it are dropped.
func (d *Device) DestroyQP(qpn uint32) { d.qps.Store(int(qpn), nil) }

// Deliver injects an inbound packet — called by the fabric. The device
// is the terminal hop: once the QP's receive path returns (or the
// packet misses every QP), a pooled envelope is recycled.
func (d *Device) Deliver(pkt *Packet) {
	d.RxPackets.Add(1)
	slot := d.qps.Load(int(pkt.DstQPN))
	if slot == nil {
		d.RxDropNoQP.Add(1)
		pkt.release()
		return
	}
	slot.sink.recvPacket(pkt)
	pkt.release()
}
