package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sdrrdma/internal/bitmap"
	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/dpa"
	"sdrrdma/internal/ec"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/gf256"
	"sdrrdma/internal/netem"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/session"
	"sdrrdma/internal/simnet"
	"sdrrdma/internal/telemetry"
)

// A drive exercises one layer's public entry point in isolation, in the
// shape the workloads use it, and reports host nanoseconds per
// operation. prepare builds the fixture once and returns the batch
// function, which reports how many operations it performed; ops is the
// target per batch at scale 1.
type drive struct {
	name string
	// allocs adds the "<layer>.<op>_allocs" companion metric.
	allocs  bool
	ops     int
	prepare func(ops int) (batch func() (int, error), err error)
}

const driveBatches = 5

// burst is how many packets or events a drive puts in flight before it
// lets them drain, as a window of back-to-back packets does.
const burst = 256

type nopHandler struct{}

func (nopHandler) HandleEvent(_, _, _ int32) {}

// probeSink is package-level so the compiler cannot devirtualise the
// probe call.
var probeSink telemetry.Sink

func burstPackets() []nicsim.Packet {
	payload := make([]byte, mtu)
	pkts := make([]nicsim.Packet, burst)
	for i := range pkts {
		pkts[i] = nicsim.Packet{Opcode: nicsim.OpWriteImm, First: true, Last: true, HasImm: true, Payload: payload}
	}
	return pkts
}

// sendBursts offers ops packets to wire in bursts from one actor,
// sleeping between bursts so every packet is delivered before its
// envelope is reused.
func sendBursts(v *clock.Virtual, wire nicsim.Wire, ops int) func() (int, error) {
	pkts := burstPackets()
	return func() (sent int, err error) {
		clock.Join(v, func() {
			for ; sent < ops; sent += burst {
				for i := range pkts {
					wire.Send(&pkts[i])
				}
				v.Sleep(time.Millisecond)
			}
		})
		return sent, nil
	}
}

func driveCoreCfg(clk clock.Clock) core.Config {
	return workload{size: 4 << 20}.coreCfg(clk)
}

var drives = []drive{
	{name: "simnet.lane_event_ns", allocs: true, ops: 1 << 18, prepare: func(ops int) (func() (int, error), error) {
		e := simnet.New()
		e.SetHandler(nopHandler{})
		return func() (done int, err error) {
			for ; done < ops; done += burst {
				for i := 0; i < burst; i++ {
					e.ScheduleLane(0, e.Now()+float64(i+1)*1e-6, 0, 0, 0)
				}
				for i := 0; i < burst; i++ {
					e.Step()
				}
			}
			return done, nil
		}, nil
	}},
	{name: "simnet.heap_event_ns", ops: 1 << 18, prepare: func(ops int) (func() (int, error), error) {
		e := simnet.New()
		e.SetHandler(nopHandler{})
		lcg := uint32(1)
		return func() (done int, err error) {
			for ; done < ops; done += burst {
				for i := 0; i < burst; i++ {
					lcg = lcg*1664525 + 1013904223
					e.Schedule(e.Now()+float64(lcg>>8)*1e-9, 0, 0, 0)
				}
				for i := 0; i < burst; i++ {
					e.Step()
				}
			}
			return done, nil
		}, nil
	}},
	{name: "clock.handoff_ns", allocs: true, ops: 1 << 16, prepare: func(ops int) (func() (int, error), error) {
		v := clock.NewVirtual()
		return func() (done int, err error) {
			turn := 0
			actor := func(me int) func() {
				return func() {
					for i := 0; i < ops/2; i++ {
						for turn != me {
							epoch := v.Epoch()
							if turn == me {
								break
							}
							v.WaitNotify(epoch, -1)
						}
						turn = 1 - me
						v.Notify()
					}
				}
			}
			clock.Join(v, actor(0), actor(1))
			return ops / 2 * 2, nil
		}, nil
	}},
	{name: "clock.timer_ns", ops: 1 << 17, prepare: func(ops int) (func() (int, error), error) {
		v := clock.NewVirtual()
		return func() (done int, err error) {
			fired := 0
			var tm clock.Timer
			tm = v.AfterFunc(time.Microsecond, func() {
				if fired++; fired < ops {
					tm.Reset(time.Microsecond)
				}
			})
			clock.Join(v, func() { v.Sleep(time.Duration(ops+1) * time.Microsecond) })
			if fired != ops {
				return fired, fmt.Errorf("timer chain fired %d of %d", fired, ops)
			}
			return fired, nil
		}, nil
	}},
	{name: "fabric.send_deliver_ns", allocs: true, ops: 1 << 16, prepare: func(ops int) (func() (int, error), error) {
		v := clock.NewVirtual()
		d := fabric.NewDirectionTo(discard{}, fabric.Config{
			Latency: 500 * time.Microsecond, BandwidthBps: lineRate, Seed: 1, Clock: v})
		return sendBursts(v, d, ops), nil
	}},
	{name: "netem.queue_pkt_ns", allocs: true, ops: 1 << 16, prepare: func(ops int) (func() (int, error), error) {
		v := clock.NewVirtual()
		q, err := netem.NewQueue(netem.QueueConfig{
			BandwidthBps: lineRate, BufferBytes: contendedBufB, Latency: 500 * time.Microsecond, Seed: 1, Clock: v})
		if err != nil {
			return nil, err
		}
		return sendBursts(v, q.Port(discard{}), ops), nil
	}},
	{name: "nicsim.uc_deliver_ns", allocs: true, ops: 1 << 17, prepare: func(ops int) (func() (int, error), error) {
		dev := nicsim.NewDevice("drive")
		dev.SetSerial(true) // as every virtual-clock deployment runs
		cq := nicsim.NewCQ(1<<12, false)
		qp := nicsim.NewUCQP(dev, mtu, cq, nil)
		mr := dev.RegMR(make([]byte, burst*mtu))
		pkt := burstPackets()[0]
		pkt.DstQPN, pkt.RKey = qp.QPN(), mr.Key()
		cqes := make([]nicsim.CQE, 0, burst)
		ops = (ops + burst - 1) / burst * burst // every CQE is drained within its batch
		return func() (done int, err error) {
			for ; done < ops; done++ {
				pkt.PSN = uint32(done)
				pkt.RemoteOffset = uint64(done%burst) * mtu
				dev.Deliver(&pkt)
				if done%burst == burst-1 {
					cqes = cqes[:0]
					if n := cq.PollInto(&cqes); n != burst {
						return done, fmt.Errorf("UC deliver produced %d CQEs per %d packets", n, burst)
					}
				}
			}
			return done, nil
		}, nil
	}},
	{name: "nicsim.dma_write_ns", ops: 1 << 18, prepare: func(ops int) (func() (int, error), error) {
		mr := nicsim.NewDevice("drive").RegMR(make([]byte, burst*mtu))
		payload := make([]byte, mtu)
		return func() (done int, err error) {
			for ; done < ops; done++ {
				if err := mr.DMAWrite(uint64(done%burst)*mtu, payload); err != nil {
					return done, err
				}
			}
			return done, nil
		}, nil
	}},
	{name: "dpa.dispatch_ns", ops: 1 << 19, prepare: func(ops int) (func() (int, error), error) {
		pool := dpa.NewPool()
		pool.SetSynchronous(true)
		cq := nicsim.NewCQ(1<<12, false)
		handled := 0
		pool.SpawnBatch(cq, func(cqes []nicsim.CQE) { handled += len(cqes) })
		return func() (done int, err error) {
			handled = 0
			for ; done < ops; done++ {
				cq.Push(nicsim.CQE{Opcode: nicsim.CQERecvWriteImm, Imm: uint32(done), HasImm: true, ByteLen: mtu})
			}
			if handled != ops {
				return done, fmt.Errorf("dpa handled %d of %d CQEs", handled, ops)
			}
			return done, nil
		}, nil
	}},
	{name: "bitmap.mark_packet_ns", ops: 1 << 20, prepare: func(ops int) (func() (int, error), error) {
		const pkts = 4 << 20 / mtu
		m := bitmap.NewMessage(pkts, chunkBytes/mtu)
		return func() (done int, err error) {
			for ; done < ops; done++ {
				m.MarkPacket(done % pkts)
				if done%pkts == pkts-1 {
					m.Reset()
				}
			}
			return done, nil
		}, nil
	}},
	{name: "bitmap.missing_scan_ns", ops: 1 << 16, prepare: func(ops int) (func() (int, error), error) {
		const chunks = 1024
		b := bitmap.New(chunks)
		for i := 0; i < chunks; i++ {
			if i%100 != 50 { // 1 % holes
				b.Set(i)
			}
		}
		dst := make([]int, 0, chunks)
		return func() (done int, err error) {
			for ; done < ops; done++ {
				dst = b.Missing(dst[:0], 0, chunks)
			}
			if len(dst) != 10 {
				return done, fmt.Errorf("missing scan found %d holes, want 10", len(dst))
			}
			return done, nil
		}, nil
	}},
	{name: "core.xfer_pkt_ns", allocs: true, ops: 1 << 16, prepare: func(ops int) (func() (int, error), error) {
		const size = 4 << 20
		v := clock.NewVirtual()
		pair, err := core.NewPair(driveCoreCfg(v), fabric.Config{}, fabric.Config{}, 0)
		if err != nil {
			return nil, err
		}
		mr := pair.B.Ctx.RegMR(make([]byte, size))
		data := make([]byte, size)
		return func() (done int, err error) {
			clock.Join(v, func() {
				for ; done < ops && err == nil; done += size / mtu {
					var h *core.RecvHandle
					if h, err = pair.B.QP.RecvPost(mr, 0, size); err != nil {
						return
					}
					if _, err = pair.A.QP.SendPost(data, 0); err != nil {
						return
					}
					if !h.Done() {
						err = fmt.Errorf("core transfer incomplete on a lossless zero-latency link")
						return
					}
					err = h.Complete()
				}
			})
			return done, err
		}, nil
	}},
	{name: "ec.encode_ns_per_KiB", ops: 8 * ecK * chunkBytes / 1024, prepare: func(ops int) (func() (int, error), error) {
		code, data, parity, err := ecFixture()
		if err != nil {
			return nil, err
		}
		return func() (done int, err error) {
			for ; done < ops; done += ecK * chunkBytes / 1024 {
				if err := code.Encode(data, parity); err != nil {
					return done, err
				}
			}
			return done, nil
		}, nil
	}},
	{name: "ec.reconstruct_ns_per_KiB", ops: 8 * ecK * chunkBytes / 1024, prepare: func(ops int) (func() (int, error), error) {
		code, data, parity, err := ecFixture()
		if err != nil {
			return nil, err
		}
		if err := code.Encode(data, parity); err != nil {
			return nil, err
		}
		shards := append(append([][]byte{}, data...), parity...)
		present := make([]bool, ecK+ecM)
		return func() (done int, err error) {
			for ; done < ops; done += ecK * chunkBytes / 1024 {
				for i := range present {
					present[i] = i != 3 && i != 17 // 2 data shards missing
				}
				if err := code.Reconstruct(shards, present); err != nil {
					return done, err
				}
			}
			return done, nil
		}, nil
	}},
	{name: "gf256.muladd_ns_per_KiB", ops: 1 << 16, prepare: func(ops int) (func() (int, error), error) {
		dst, src := make([]byte, chunkBytes), make([]byte, chunkBytes)
		return func() (done int, err error) {
			for ; done < ops; done += chunkBytes / 1024 {
				gf256.MulAddSlice(0x57, dst, src)
			}
			return done, nil
		}, nil
	}},
	{name: "gf256.xor_ns_per_KiB", ops: 1 << 18, prepare: func(ops int) (func() (int, error), error) {
		dst, src := make([]byte, chunkBytes), make([]byte, chunkBytes)
		return func() (done int, err error) {
			for ; done < ops; done += chunkBytes / 1024 {
				gf256.XORSlice(dst, src)
			}
			return done, nil
		}, nil
	}},
	{name: "session.lease_ns", allocs: true, ops: 1 << 12, prepare: func(ops int) (func() (int, error), error) {
		v := clock.NewVirtual()
		pool, err := session.NewPool(session.Config{Core: driveCoreCfg(v)})
		if err != nil {
			return nil, err
		}
		rel, fab := reliability.Config{RTT: time.Millisecond}, fabric.Config{Clock: v}
		return func() (done int, err error) {
			for ; done < ops; done++ {
				s, err := pool.LeaseLinkedOn(nil, rel, fab, fab, 0)
				if err != nil {
					return done, err
				}
				s.Close()
			}
			return done, nil
		}, nil
	}},
	{name: "session.cold_build_ns", allocs: true, ops: 8, prepare: func(ops int) (func() (int, error), error) {
		v := clock.NewVirtual()
		rel, fab := reliability.Config{RTT: time.Millisecond}, fabric.Config{Clock: v}
		return func() (done int, err error) {
			for ; done < ops; done++ {
				pool, err := session.NewPool(session.Config{Core: driveCoreCfg(v)})
				if err != nil {
					return done, err
				}
				s, err := pool.LeaseLinked(rel, fab, fab, 0)
				if err != nil {
					return done, err
				}
				s.Close()
				if err := pool.Close(); err != nil {
					return done, err
				}
			}
			return done, nil
		}, nil
	}},
	// The dark path components actually take is a nil check on their
	// sink field, which has no callable form; the explicit no-op sink is
	// the nearest public one and bounds it from above.
	{name: "telemetry.probe_off_ns", ops: 1 << 21, prepare: func(ops int) (func() (int, error), error) {
		return func() (done int, err error) {
			probeSink = telemetry.Nop{}
			for ; done < ops; done++ {
				probeSink.Event(int64(done), telemetry.EvRetransmit, 0, 1, 2, 0, 0)
			}
			return done, nil
		}, nil
	}},
	{name: "telemetry.probe_on_ns", ops: 1 << 18, prepare: func(ops int) (func() (int, error), error) {
		rec := telemetry.NewRecorder("drive")
		track := rec.Track("drive")
		return func() (done int, err error) {
			rec.Reset() // keep the slab below its cap; capacity is retained
			probeSink = rec
			for ; done < ops; done++ {
				probeSink.Event(int64(done), telemetry.EvRetransmit, track, 1, 2, 0, 0)
			}
			return done, nil
		}, nil
	}},
}

func ecFixture() (ec.Code, [][]byte, [][]byte, error) {
	code, err := ec.NewRS(ecK, ecM)
	if err != nil {
		return nil, nil, nil, err
	}
	shards := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, chunkBytes)
			fillPattern(out[i], 1, i)
		}
		return out
	}
	return code, shards(ecK), shards(ecM), nil
}

// runDrives measures every drive: one warm-up batch, then the fastest
// of driveBatches timed batches (the same estimator as the workloads'
// host time, so ledger rows compare like with like) and the median
// allocation count. scale shrinks the batches (tests).
func runDrives(scale float64) (map[string]float64, error) {
	out := map[string]float64{}
	var m0, m1 runtime.MemStats
	for _, d := range drives {
		ops := max(int(float64(d.ops)*scale), 2)
		batch, err := d.prepare(ops)
		if err == nil {
			_, err = batch() // warm-up
		}
		var ns, allocs []float64
		for b := 0; b < driveBatches && err == nil; b++ {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			var done int
			done, err = batch()
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(done))
			runtime.ReadMemStats(&m1)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(done))
		}
		if err != nil {
			return nil, fmt.Errorf("drive %s: %w", d.name, err)
		}
		out[d.name] = slices.Min(ns)
		if d.allocs {
			out[allocsName(d.name)] = median(allocs)
		}
	}
	return out, nil
}

// allocsName maps "layer.op_ns" to its "layer.op_allocs" companion.
func allocsName(name string) string { return name[:len(name)-len("ns")] + "allocs" }
