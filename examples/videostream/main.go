// Videostream: a long-lived broadcast (the paper's video-over-Internet
// scenario) streamed block by block under the augmented chain C_{3,3},
// which was designed to survive bursty loss. Each block of frames is
// authenticated independently so late joiners synchronize at the next
// block boundary; the network drops a contiguous burst per block
// (Gilbert-Elliott), exactly the adversary AC targets.
//
// Run with: go run ./examples/videostream
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
		framesPerBlock = 41 // 10 chain segments of b+1=4, plus the signed packet
		blocks         = 5
		receivers      = 30
	)
	signer := mcauth.NewSigner("broadcast-station")
	s, err := mcauth.NewAugChain(mcauth.AugChainConfig{N: framesPerBlock, A: 3, B: 3}, signer)
	if err != nil {
		return err
	}

	// Bursty loss: mean burst of 3 packets, stationary loss rate 10%.
	lossModel, err := loss.NewGilbertElliott(0.1/3/0.9, 1.0/3, 0, 1)
	if err != nil {
		return err
	}
	delayModel, err := delay.NewGaussian(30*time.Millisecond, 10*time.Millisecond)
	if err != nil {
		return err
	}

	var totalFrames, totalVerified, totalDelivered int
	for block := uint64(1); block <= blocks; block++ {
		frames := make([][]byte, framesPerBlock)
		for i := range frames {
			frames[i] = fmt.Appendf(nil, "frame<%d/%d>", block, i+1)
		}
		res, err := mcauth.Simulate(s, mcauth.SimConfig{
			Receivers:       receivers,
			Loss:            lossModel,
			Delay:           delayModel,
			SendInterval:    33 * time.Millisecond, // ~30 fps
			Start:           time.Unix(0, 0).Add(time.Duration(block) * time.Second),
			Seed:            block,
			ReliableIndices: []uint32{framesPerBlock}, // signature frame
		}, block, frames)
		if err != nil {
			return err
		}
		var verified, delivered int
		for _, rep := range res.PerReceiver {
			verified += rep.Stats.Authenticated
			delivered += rep.Delivered
		}
		totalFrames += framesPerBlock * receivers
		totalVerified += verified
		totalDelivered += delivered
		fmt.Printf("block %d: delivered %4d/%4d frames, authenticated %4d (%.1f%% of delivered)\n",
			block, delivered, framesPerBlock*receivers, verified,
			100*float64(verified)/float64(delivered))
	}
	fmt.Printf("\nstream total: %.1f%% of all frames delivered, %.1f%% of delivered frames authenticated\n",
		100*float64(totalDelivered)/float64(totalFrames),
		100*float64(totalVerified)/float64(totalDelivered))

	// Compare with what the analysis predicts for this block size.
	rec, err := mcauth.AnalyticRecurrence(s, 0.1)
	if err != nil {
		return err
	}
	fmt.Printf("analytic q_min under i.i.d. loss at the same rate: %.3f\n", rec.QMin)
	fmt.Println("(bursty loss hits harder than i.i.d. at the same rate — see `mcfig -fig burst`)")
	return nil
}
