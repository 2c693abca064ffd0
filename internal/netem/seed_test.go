package netem

import (
	"math/rand"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/wan"
)

// dropLog records which flow packets a queue's loss process dropped,
// by PSN.
type dropLog struct{ dropped map[uint32]bool }

func (d *dropLog) hook(p *nicsim.Packet, reason DropReason, _ nicsim.Deliverer) {
	if reason == channelLoss {
		d.dropped[p.PSN] = true
	}
}

// A queue and a Poisson generator seed their random sources on the
// first draw. A lossy queue drops exactly the packets that its loss
// model, fed by a source seeded by hand with the queue's seed, picks —
// for i.i.d. and Gilbert–Elliott loss, and for a queue that ran
// lossless until its loss was set. A Poisson generator's arrivals fall
// on the gaps of a hand-seeded source. Neither a lossless queue nor a
// CBR generator ever builds a source.
func TestLazySeedMatchesEagerReference(t *testing.T) {
	const n, seed = 4000, 7
	model := func(spec LossSpec) wan.LossModel {
		t.Helper()
		m, err := spec.build()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// send pushes n packets, numbered from first, through q and waits
	// for them to leave.
	send := func(clk *clock.Virtual, q *Queue, first uint32) {
		port := q.Port(&recorder{clk: clk})
		clock.Join(clk, func() {
			for i := uint32(0); i < n; i++ {
				port.Send(pkt(first+i, 0))
			}
			clk.Sleep(time.Second)
		})
	}
	// check compares the drops of packets first..first+n-1 with ref
	// drawing from a freshly seeded source.
	check := func(label string, log *dropLog, ref wan.LossModel, first uint32) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		drops := 0
		for i := uint32(0); i < n; i++ {
			want := ref.Drop(rng)
			if log.dropped[first+i] != want {
				t.Fatalf("%s: packet %d dropped=%v, eager reference %v", label, first+i, log.dropped[first+i], want)
			}
			if want {
				drops++
			}
		}
		if drops == 0 {
			t.Fatalf("%s: the reference dropped nothing", label)
		}
	}

	for _, spec := range []LossSpec{{P: 0.05}, {P: 0.05, BurstLen: 4}} {
		clk := clock.NewVirtual()
		q, err := NewQueue(QueueConfig{BandwidthBps: 512e6, Loss: model(spec), Seed: seed, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		if q.rng != nil {
			t.Fatal("construction seeded the queue's source")
		}
		log := &dropLog{dropped: map[uint32]bool{}}
		q.SetDropHook(log.hook)
		send(clk, q, 0)
		check("lossy", log, model(spec), 0)
	}

	clk := clock.NewVirtual()
	q, err := NewQueue(QueueConfig{BandwidthBps: 512e6, Seed: seed, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	log := &dropLog{dropped: map[uint32]bool{}}
	q.SetDropHook(log.hook)
	cbr, err := NewTrafficGen(TrafficConfig{Bps: 1e8, PacketBytes: 1024, Seed: 3, Clock: clk}, q.Port(nil))
	if err != nil {
		t.Fatal(err)
	}
	cbr.Start()
	send(clk, q, 0)
	cbr.Stop()
	if q.rng != nil || cbr.rng != nil || len(log.dropped) != 0 {
		t.Fatalf("lossless queue under CBR traffic built a source: queue %v, generator %v, drops %d",
			q.rng != nil, cbr.rng != nil, len(log.dropped))
	}
	if cbr.Sent() == 0 {
		t.Fatal("the CBR generator sent nothing")
	}
	q.setLoss(model(LossSpec{P: 0.05}))
	send(clk, q, n)
	check("lossless -> lossy", log, model(LossSpec{P: 0.05}), n)

	clk = clock.NewVirtual()
	q, err = NewQueue(QueueConfig{BandwidthBps: 100e9, Seed: seed, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(TrafficConfig{Bps: 5e9, PacketBytes: 4096, Poisson: true, Seed: 5, Clock: clk}, q.Port(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gen.rng != nil {
		t.Fatal("construction seeded the generator's source")
	}
	start := clk.NowNanos()
	gen.Start()
	clock.Join(clk, func() { clk.Sleep(10 * time.Millisecond) })
	sent := gen.Sent()
	rng := rand.New(rand.NewSource(5))
	next := start
	for i := uint64(0); i <= sent; i++ {
		next += int64(time.Duration(rng.ExpFloat64() * float64(gen.mean)))
	}
	if sent < 1000 || gen.next != next {
		t.Fatalf("after %d arrivals the next falls at %v, eager reference %v", sent, gen.next, next)
	}
	if q.rng != nil {
		t.Fatal("a lossless queue under Poisson traffic built a source")
	}
}
