// wanreliability races the reliability layers of §4 — Selective Repeat
// (RTO- and NACK-driven) and Erasure Coding — over the same simulated
// lossy WAN and reports wall-clock completion times plus packets sent.
//
// The link models a 4 ms-RTT inter-site channel with 3% packet loss in
// both directions; ACKs/NACKs ride a UD control path over the same
// lossy fabric. On the wall clock a retransmitted chunk's DMA can still
// be in flight when both sides return, so the example does not read the
// receive buffer; the same three schemes are byte-verified under loss
// on the virtual clock (internal/reliability's TestTransferSchemes and
// golden tuples, `sdr-experiments -fig wan-functional`).
package main

import (
	"fmt"
	"log"
	"time"

	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
)

func main() {
	coreCfg := core.Config{MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 1 << 20}
	const size = 256 << 10
	for _, scheme := range []string{"sr", "sr-nack", "ec"} {
		// Alpha defaults to 2: RTO = 3·RTT, the paper's SR RTO scenario.
		relCfg, err := reliability.Config{
			RTT:          4 * time.Millisecond,
			PollInterval: 500 * time.Microsecond,
			AckInterval:  time.Millisecond,
			K:            8, M: 2,
		}.ForScheme(scheme)
		if err != nil {
			log.Fatal(err)
		}
		elapsed, sent := run(coreCfg, relCfg, scheme, size)
		fmt.Printf("%-8s  completed %3d KiB in %8.2f ms  (packets sent: %d)\n",
			scheme, size>>10, elapsed.Seconds()*1e3, sent)
	}
}

func run(coreCfg core.Config, relCfg reliability.Config, scheme string, size int) (time.Duration, uint64) {
	lat := 2 * time.Millisecond
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
