// Quickstart: the SDR SDK in one file.
//
// Two simulated NICs are connected by an in-memory fabric that drops
// 2% of packets. The receiver posts a buffer and polls the partial
// completion bitmap (the paper's core abstraction, §3.1.1); the sender
// performs a one-shot SDR send and then repairs the holes the bitmap
// reports with a streaming send — a minimal hand-rolled reliability
// layer in ~40 lines.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
)

func main() {
	cfg := core.Config{} // paper defaults: 4 KiB MTU, 64 KiB chunks, 10+18+4 imm split
	pair, err := core.NewPair(cfg,
		fabric.Config{DropProb: 0.02, Seed: 7}, // lossy long-haul direction
		fabric.Config{},                        // clean return path
		0)
	if err != nil {
		log.Fatal(err)
	}
	defer pair.Close()

	const size = 1 << 20 // 1 MiB = 16 chunks of 64 KiB
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	// Receiver: register memory, post the buffer, get the bitmap.
	recvBuf := make([]byte, size)
	mr := pair.B.Ctx.RegMR(recvBuf)           // mr_reg
	h, err := pair.B.QP.RecvPost(mr, 0, size) // recv_post (sends CTS)
	if err != nil {
		log.Fatal(err)
	}

	// Sender: one-shot send (send_post) — unreliable, some chunks will
	// be missing on the other side.
	stream, err := pair.A.QP.SendStreamStart(size, 0xFEEDC0DE) // send_stream_start
	if err != nil {
		log.Fatal(err)
	}
	if err := stream.Continue(0, payload); err != nil { // send_stream_continue
		log.Fatal(err)
	}

	// Reliability layer: poll the chunk bitmap and retransmit holes.
	chunk := pair.B.Ctx.Config().ChunkBytes
	for round := 1; !h.Done(); round++ {
		time.Sleep(2 * time.Millisecond)
		missing := h.Bitmap().Missing(nil, 0, h.Bitmap().Len()) // recv_bitmap_get
		if len(missing) == 0 {
			continue
		}
		fmt.Printf("round %d: bitmap reports %d/%d chunks missing: %v\n",
			round, len(missing), h.Bitmap().Len(), missing)
		for _, c := range missing {
			lo := c * chunk
			hi := min(lo+chunk, size)
			if err := stream.Continue(lo, payload[lo:hi]); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := stream.End(); err != nil { // send_stream_end
		log.Fatal(err)
	}

	imm, err := h.Imm() // recv_imm_get: reassembled from 4-bit fragments
	if err != nil {
		log.Fatal(err)
	}
	if err := h.Complete(); err != nil { // recv_complete
		log.Fatal(err)
	}
	if !bytes.Equal(recvBuf, payload) {
		log.Fatal("payload corrupted")
	}
	st := pair.B.QP.Stats()
	fmt.Printf("delivered %d B intact over a 2%%-loss link; user immediate %#x\n", size, imm)
	fmt.Printf("packets received %d (sent %d, the difference was dropped and repaired)\n",
		st.PacketsReceived, pair.A.QP.Stats().PacketsSent)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
