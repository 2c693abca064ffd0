package chaos

import (
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"sdrrdma/internal/clock"
	"sdrrdma/internal/reliability"
)

// ctrlRecvTraffic is reliability's recvTraffic: the most control
// receive buffers outstanding at once this session, and the
// receiver-not-ready drops.
//
//go:linkname ctrlRecvTraffic sdrrdma/internal/reliability.recvTraffic
func ctrlRecvTraffic(cp *reliability.ControlPlane) (hwm int32, rnrDrops uint64)

// TestCtrlRecvRingUnderChaos measures, rather than assumes, the
// traffic the control plane's receive ring is sized to. The faulted
// flows are the first smoke programs plus a duplicate storm on both
// sides: every duplicate lands as its own delivery event. On the
// virtual clock the CQ sink reposts inside that event, so no datagram
// may find the ring empty and no more than one buffer may be
// outstanding at once.
func TestCtrlRecvRingUnderChaos(t *testing.T) {
	var progs []Program
	for i := range 20 {
		if p := generate(smokeSeed, i); p.Scheme != schemeRCGBN {
			progs = append(progs, p)
		}
	}
	for i, scheme := range Schemes {
		if scheme == schemeRCGBN {
			continue
		}
		progs = append(progs, Program{Seed: smokeSeed, Index: 100 + i, Scheme: scheme, Size: 256 << 10,
			Faults: []Fault{
				{Kind: faultControlDup, Edge: 0, Dur: horizon, Pct: 70},
				{Kind: faultControlDup, Edge: 1, Dur: horizon, Pct: 70},
				{Kind: faultBurstLoss, Edge: 1, At: time.Millisecond, Dur: 20 * time.Millisecond, Pct: 20},
			}})
	}
	for _, p := range progs {
		clk := clock.NewVirtual()
		topo, src, dst, err := diamond(clk, int64(p.Seed)+int64(p.Index)*7919)
		if err != nil {
			t.Fatal(err)
		}
		sched, eps := compile(p)
		relCfg, err := reliability.Config{K: 4, M: 2, GlobalTimeout: globalTimeout}.ForScheme(p.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		flow, err := topo.NewFlow(src, dst, chaosCoreCfg(), relCfg)
		if err != nil {
			t.Fatal(err)
		}
		installEndpointFaults(clk, flow, p, eps)
		if _, err := sched.Apply(topo); err != nil {
			t.Fatal(err)
		}
		out := transfer(clk, flow, p.Scheme, p.Size, byte(p.Index))
		clock.Join(clk, func() { clk.Sleep(horizon) })
		for side, cp := range []*reliability.ControlPlane{flow.A.CP, flow.B.CP} {
			if hwm, rnr := ctrlRecvTraffic(cp); hwm > 1 || rnr != 0 {
				t.Errorf("[%s] side %c: %d control buffers outstanding at once, %d RNR drops; want ≤ 1, 0",
					p, "AB"[side], hwm, rnr)
			}
		}
		// The sender hears every ACK: a completed transfer with an idle
		// watermark would mean the probe measures nothing.
		if hwm, _ := ctrlRecvTraffic(flow.A.CP); out.SendErr == nil && hwm != 1 {
			t.Errorf("[%s] completed with sender watermark %d, want 1", p, hwm)
		}
		flow.Quarantine()
	}
}
