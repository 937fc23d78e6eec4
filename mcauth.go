// Package mcauth is a library for analyzing and running multicast / stream
// authentication schemes through the dependence-graph framework of
// "A graph-theoretical analysis of multicast authentication"
// (Aldar C-F. Chan, ICDCS 2003).
//
// It bundles three layers:
//
//   - Runnable schemes (Gennaro-Rohatgi hash chain, Wong-Lam authentication
//     tree, EMSS E_{m,d}, Golle-Modadugu augmented chain C_{a,b}, TESLA,
//     and a sign-every-packet baseline) that really sign, serialize and
//     verify packet streams.
//   - The dependence-graph core: every scheme exposes its graph, from which
//     authentication probabilities (exact, Monte-Carlo, bounds),
//     communication overhead, receiver delay and buffer sizes are derived.
//   - Analytic evaluators on each scheme's own graph — the paper's
//     recurrence and one exact evaluator over any dependence graph of
//     bounded frontier — plus TESLA's Equation 7, a lossy-multicast network
//     simulator, and the Section 5 construction toolkit.
//
// The facade re-exports the most common entry points; the sub-packages
// under internal/ carry the full API surface used by the cmd/ tools,
// examples/ and the benchmark harness.
package mcauth

import (
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/rohatgi"
	"mcauth/internal/scheme/signeach"
	"mcauth/internal/scheme/tesla"
	"mcauth/internal/stream"
	"mcauth/internal/verifier"
)

// Core re-exported types.
type (
	// Scheme is a runnable multicast authentication scheme.
	Scheme = scheme.Scheme
	// Verifier is a receiver-side verification state machine.
	Verifier = scheme.Verifier
	// VerifierEnv configures a Verifier at Scheme.NewVerifier; the zero
	// value is the synchronous, unbounded, unobserved verifier.
	VerifierEnv = verifier.Env
	// Graph is a dependence-graph (Definition 1 of the paper).
	Graph = depgraph.Graph
	// Signer signs block signatures (Ed25519).
	Signer = crypto.Signer
	// SimConfig parameterizes the lossy-multicast simulator.
	SimConfig = netsim.Config
	// SimResult is a simulation outcome.
	SimResult = netsim.Result
	// TESLAConfig parameterizes the TESLA scheme.
	TESLAConfig = tesla.Config
	// EMSSConfig parameterizes E_{m,d}.
	EMSSConfig = emss.Config
	// AugChainConfig parameterizes C_{a,b}.
	AugChainConfig = augchain.Config
)

// NewSigner derives a deterministic Ed25519 signer from an identity
// string. Production users should derive the seed from crypto/rand and use
// crypto.NewSigner directly.
func NewSigner(identity string) Signer {
	return crypto.NewSignerFromString(identity)
}

// NewRohatgi builds the Gennaro-Rohatgi hash chain over blocks of n
// packets: zero receiver delay, one hash per packet, no loss tolerance.
func NewRohatgi(n int, signer Signer) (Scheme, error) {
	return rohatgi.New(n, signer)
}

// NewEMSS builds EMSS E_{m,d}: each packet's hash is stored in m later
// packets at spacing d; the signature packet is last.
func NewEMSS(cfg EMSSConfig, signer Signer) (Scheme, error) {
	return emss.New(cfg, signer)
}

// NewAugChain builds the Golle-Modadugu augmented chain C_{a,b}.
func NewAugChain(cfg AugChainConfig, signer Signer) (Scheme, error) {
	return augchain.New(cfg, signer)
}

// NewAuthTree builds the Wong-Lam authentication tree: every packet is
// individually verifiable at log2(n) hashes plus a signature of overhead.
func NewAuthTree(n int, signer Signer) (Scheme, error) {
	return authtree.New(n, signer)
}

// NewAuthTreeArity builds a Wong-Lam tree of the given degree: higher
// arity trades wider per-packet sibling paths for a shallower tree.
func NewAuthTreeArity(n, arity int, signer Signer) (Scheme, error) {
	return authtree.NewArity(n, arity, signer)
}

// NewTESLA builds the TESLA scheme: per-interval MAC keys from a one-way
// chain, disclosed after cfg.Lag intervals, bootstrapped by one signed
// packet.
func NewTESLA(cfg TESLAConfig, signer Signer) (Scheme, error) {
	return tesla.New(cfg, signer)
}

// NewSignEach builds the sign-every-packet baseline.
func NewSignEach(n int, signer Signer) (Scheme, error) {
	return signeach.New(n, signer)
}

// Simulate multicasts one authenticated block to cfg.Receivers lossy
// receivers and reports per-receiver verification outcomes.
func Simulate(s Scheme, cfg SimConfig, blockID uint64, payloads [][]byte) (*SimResult, error) {
	return netsim.Run(s, cfg, blockID, payloads)
}

// Session-layer types for long-lived streams (see internal/stream and
// internal/transport for byte-stream carriage).
type (
	// StreamSender chops an unbounded message sequence into
	// authenticated blocks.
	StreamSender = stream.Sender
	// StreamReceiver demultiplexes interleaved blocks with bounded
	// state.
	StreamReceiver = stream.Receiver
	// Authenticated is one verified message from a StreamReceiver.
	Authenticated = stream.Authenticated
)

// NewStreamSender starts a block-chopping sender at the given block ID.
func NewStreamSender(s Scheme, startBlock uint64) (*StreamSender, error) {
	return stream.NewSender(s, startBlock)
}

// NewStreamReceiver creates a receiver keeping at most maxBlocks blocks of
// verification state (bounding the DoS surface the paper warns about).
func NewStreamReceiver(s Scheme, maxBlocks int) (*StreamReceiver, error) {
	return stream.NewReceiver(s, maxBlocks)
}

// AnalyticTESLA is TESLA's q_min under i.i.d. loss at rate p and Gaussian
// end-to-end delay (mean mu, deviation sigma) with disclosure delay tDisc,
// all in one time unit: Equation 7, (1-p)·Φ((tDisc-mu)/sigma).
func AnalyticTESLA(p, tDisc, mu, sigma float64) (float64, error) {
	return tesla.QMin(p, tDisc, mu, sigma)
}

// AnalyticRecurrence computes the paper's independence recurrence for s
// under i.i.d. loss at rate p (Equations 8-10) on s's own dependence graph
// (Graph.Recurrence): an upper bound on AnalyticMarkovExact's q_i, at any
// block size.
func AnalyticRecurrence(s Scheme, p float64) (depgraph.AuthResult, error) {
	g, err := s.Graph()
	if err != nil {
		return depgraph.AuthResult{}, err
	}
	return g.Recurrence(p)
}

// AnalyticMarkovExact computes the exact q_i of s under i.i.d. loss at rate
// p, with no independence approximation: the frontier sweep of s's own
// dependence graph (Graph.ExactAuthProbDelivery, which also takes bursty
// channels). It fails, with an error matching depgraph.ErrFrontier, on a
// graph whose root is in mid-block or whose frontier exceeds 20 bits.
func AnalyticMarkovExact(s Scheme, p float64) (depgraph.AuthResult, error) {
	g, err := s.Graph()
	if err != nil {
		return depgraph.AuthResult{}, err
	}
	return g.ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: p}.Channel()})
}

// TESLAAt builds a TESLA configuration with one packet per interval
// starting at start.
func TESLAAt(n, lag int, interval time.Duration, start time.Time, seed []byte) TESLAConfig {
	return TESLAConfig{N: n, Lag: lag, Interval: interval, Start: start, Seed: seed}
}
