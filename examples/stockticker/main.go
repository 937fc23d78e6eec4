// Stockticker: the paper's motivating scenario — stock quotes multicast to
// many untrusted subscribers, where no subscriber may be able to forge
// quotes to another. This example streams quotes under TESLA: per-interval
// MAC keys from a one-way chain, disclosed two intervals later, and a
// safety condition that drops any quote arriving after its key became
// public.
//
// Run with: go run ./examples/stockticker
package main

import (
	"fmt"
	"log"
	"time"

	"mcauth"
	"mcauth/internal/delay"
	"mcauth/internal/loss"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		quotes   = 24
		lag      = 2
		interval = 50 * time.Millisecond
	)
	start := time.Unix(1_700_000_000, 0)
	signer := mcauth.NewSigner("exchange-feed")
	s, err := mcauth.NewTESLA(mcauth.TESLAAt(quotes, lag, interval, start, []byte("ticker-chain")), signer)
	if err != nil {
		return err
	}

	tickers := []string{"ACME", "GLOBEX", "INITECH", "HOOLI"}
	payloads := make([][]byte, quotes)
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "%s %0.2f", tickers[i%len(tickers)], 100+float64(i)*0.25)
	}

	// Multicast to 50 subscribers over a jittery, lossy network.
	lossModel, err := loss.NewBernoulli(0.15)
	if err != nil {
		return err
	}
	delayModel, err := delay.NewGaussian(20*time.Millisecond, 8*time.Millisecond)
	if err != nil {
		return err
	}
	res, err := mcauth.Simulate(s, mcauth.SimConfig{
		Receivers:       50,
		Loss:            lossModel,
		Delay:           delayModel,
		SendInterval:    interval,
		Start:           start,
		Seed:            2024,
		ReliableIndices: []uint32{1}, // the signed bootstrap packet
	}, 1, payloads)
	if err != nil {
		return err
	}

	var delivered, authentic, unsafeDrops int
	for _, rep := range res.PerReceiver {
		delivered += rep.Delivered
		authentic += rep.Stats.Authenticated
		unsafeDrops += rep.Stats.Unsafe
	}
	fmt.Printf("subscribers: %d\n", len(res.PerReceiver))
	fmt.Printf("quotes delivered: %d, authenticated: %d, dropped unsafe: %d\n",
		delivered, authentic, unsafeDrops)

	// A subscriber cannot forge quotes for its peers: replay receiver 0's
	// packets with a doctored price and watch the MAC fail.
	pkts, err := s.Authenticate(2, payloads)
	if err != nil {
		return err
	}
	v, err := s.NewVerifier(mcauth.VerifierEnv{})
	if err != nil {
		return err
	}
	forgedAccepted := false
	for w, p := range pkts {
		deliver := p
		if p.KeyIndex == 5 {
			evil := *p
			evil.Payload = []byte("ACME 9999.99")
			deliver = &evil
		}
		at := start.Add(time.Duration(w)*interval + 5*time.Millisecond)
		events, err := v.Ingest(deliver, at)
		if err != nil {
			return err
		}
		for _, e := range events {
			if string(e.Payload) == "ACME 9999.99" {
				forgedAccepted = true
			}
		}
	}
	if forgedAccepted {
		return fmt.Errorf("forged quote accepted — broken MAC verification")
	}
	fmt.Printf("forged quote rejected: %d MAC rejections recorded\n", v.Stats().Rejected)
	return nil
}
