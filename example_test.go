package mcauth_test

import (
	"fmt"
	"time"

	"mcauth"
)

// ExampleNewEMSS authenticates a small block and verifies it in order.
func ExampleNewEMSS() {
	signer := mcauth.NewSigner("example-sender")
	s, err := mcauth.NewEMSS(mcauth.EMSSConfig{N: 4, M: 2, D: 1}, signer)
	if err != nil {
		fmt.Println(err)
		return
	}
	payloads := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	pkts, err := s.Authenticate(1, payloads)
	if err != nil {
		fmt.Println(err)
		return
	}
	v, err := s.NewVerifier(mcauth.VerifierEnv{})
	if err != nil {
		fmt.Println(err)
		return
	}
	authentic := 0
	for _, p := range pkts {
		events, err := v.Ingest(p, time.Unix(0, 0))
		if err != nil {
			fmt.Println(err)
			return
		}
		authentic += len(events)
	}
	fmt.Printf("authenticated %d of %d\n", authentic, len(payloads))
	// Output: authenticated 4 of 4
}

// ExampleScheme_graph reads the paper's metrics off a scheme's
// dependence-graph.
func ExampleNewRohatgi() {
	signer := mcauth.NewSigner("example-sender")
	s, err := mcauth.NewRohatgi(10, signer)
	if err != nil {
		fmt.Println(err)
		return
	}
	g, err := s.Graph()
	if err != nil {
		fmt.Println(err)
		return
	}
	delay, err := g.MaxDeterministicDelay()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("edges=%d hashes/pkt=%.1f delay=%d\n",
		g.NumEdges(), g.AvgHashesPerPacket(), delay)
	// Output: edges=9 hashes/pkt=0.9 delay=0
}

// ExampleAnalyticRecurrence evaluates the paper's Equation (8) recurrence
// and the exact evaluation of the scheme's own dependence graph side by
// side.
func ExampleAnalyticRecurrence() {
	s, err := mcauth.NewEMSS(mcauth.EMSSConfig{N: 100, M: 2, D: 1}, mcauth.NewSigner("example-sender"))
	if err != nil {
		fmt.Println(err)
		return
	}
	recurrence, err := mcauth.AnalyticRecurrence(s, 0.1)
	if err != nil {
		fmt.Println(err)
		return
	}
	exact, err := mcauth.AnalyticMarkovExact(s, 0.1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("recurrence=%.4f exact=%.4f\n", recurrence.QMin, exact.QMin)
	// Output: recurrence=0.9877 exact=0.4090
}

// ExampleNewStreamSender streams two blocks through the session layer.
func ExampleNewStreamSender() {
	signer := mcauth.NewSigner("example-sender")
	s, err := mcauth.NewEMSS(mcauth.EMSSConfig{N: 4, M: 2, D: 1}, signer)
	if err != nil {
		fmt.Println(err)
		return
	}
	snd, err := mcauth.NewStreamSender(s, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	rcv, err := mcauth.NewStreamReceiver(s, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	verified := 0
	for i := 0; i < 8; i++ {
		pkts, err := snd.Push([]byte{byte(i)})
		if err != nil {
			fmt.Println(err)
			return
		}
		for _, p := range pkts {
			events, err := rcv.Ingest(p, time.Unix(0, 0))
			if err != nil {
				fmt.Println(err)
				return
			}
			verified += len(events)
		}
	}
	fmt.Printf("verified %d messages across %d blocks\n", verified, snd.NextBlockID()-1)
	// Output: verified 8 messages across 2 blocks
}
