// wanreliability races the reliability layers of §4 — Selective Repeat
// (RTO- and NACK-driven) and Erasure Coding — over the same simulated
// lossy WAN and reports simulated completion times plus packets sent.
//
// The link models a 4 ms-RTT inter-site channel with 3% packet loss in
// both directions; ACKs/NACKs ride a UD control path over the same
// lossy fabric. Each scheme runs on its own virtual clock, so the
// output is identical on every run and Outcome.Err compares the
// received bytes with the sent ones (on the wall clock a retransmitted
// chunk's DMA can still be in flight when both sides return, and the
// check has to stand down).
package main

import (
	"fmt"
	"log"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
)

func main() {
	const size = 256 << 10
	for _, scheme := range []string{"sr", "sr-nack", "ec"} {
		// Alpha defaults to 2: RTO = 3·RTT, the paper's SR RTO scenario;
		// the poll and ACK cadences default to RTT/8 and RTT/4.
		relCfg, err := reliability.Config{
			RTT: 4 * time.Millisecond,
			K:   8, M: 2,
		}.ForScheme(scheme)
		if err != nil {
			log.Fatal(err)
		}
		elapsed, sent := run(relCfg, scheme, size)
		fmt.Printf("%-8s  completed and verified %3d KiB in %8.2f ms  (packets sent: %d)\n",
			scheme, size>>10, elapsed.Seconds()*1e3, sent)
	}
}

func run(relCfg reliability.Config, scheme string, size int) (time.Duration, uint64) {
	lat := 2 * time.Millisecond
	coreCfg := core.Config{MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 1 << 20, Clock: clock.NewVirtual()}
	sess, err := reliability.NewSession(coreCfg, relCfg,
		fabric.Config{Latency: lat, DropProb: 0.03, Seed: 11},
		fabric.Config{Latency: lat, DropProb: 0.03, Seed: 12},
		lat)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	tr, err := sess.NewTransfer(scheme, reliability.AdaptorConfig{}, size, 1)
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	out := tr.Drive("wan", data)
	if err := out.Err(); err != nil {
		log.Fatal(err)
	}
	return max(out.SendDone, out.RecvDone), sess.Pair.A.QP.Stats().PacketsSent
}
