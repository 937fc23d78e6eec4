// Quickstart: authenticate a block of stream packets with EMSS, lose some
// packets in transit, tamper with one, and watch the receiver verify what
// the dependence-graph says it should.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"mcauth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const blockSize = 16
	signer := mcauth.NewSigner("quickstart-sender")

	// EMSS E_{2,1}: every packet's hash is stored in the next two
	// packets; the last packet carries the block signature.
	s, err := mcauth.NewEMSS(mcauth.EMSSConfig{N: blockSize, M: 2, D: 1}, signer)
	if err != nil {
		return err
	}

	payloads := make([][]byte, blockSize)
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "message %02d", i+1)
	}
	pkts, err := s.Authenticate(1, payloads)
	if err != nil {
		return err
	}

	// The receiver: drop packets 4 and 5 (a small burst), tamper with
	// packet 7, deliver the rest in order.
	v, err := s.NewVerifier(mcauth.VerifierEnv{})
	if err != nil {
		return err
	}
	lost := map[uint32]bool{4: true, 5: true}
	now := time.Now()
	verified := 0
	for _, p := range pkts {
		if lost[p.Index] {
			fmt.Printf("packet %2d: lost in transit\n", p.Index)
			continue
		}
		deliver := p
		if p.Index == 7 {
			evil := *p
			evil.Payload = []byte("forged msg!")
			deliver = &evil
		}
		events, err := v.Ingest(deliver, now)
		if err != nil {
			return err
		}
		for _, e := range events {
			verified++
			fmt.Printf("packet %2d: AUTHENTIC %q\n", e.Index, e.Payload)
		}
	}
	st := v.Stats()
	fmt.Printf("\nreceived %d, authentic %d, rejected (tampered) %d\n",
		st.Received, st.Authenticated, st.Rejected)

	// The dependence-graph predicts this: consult it for the block's
	// static metrics.
	g, err := s.Graph()
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d edges, %.2f hashes/packet, signature packet P%d\n",
		g.NumEdges(), g.AvgHashesPerPacket(), g.Root())
	if verified == 0 {
		return fmt.Errorf("nothing verified; something is wrong")
	}
	return nil
}
