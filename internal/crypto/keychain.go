package crypto

import "fmt"

// The TESLA one-way key chain is K_n, K_{n-1}, ..., K_0 with K_{i-1} =
// F(K_i) for a pseudo-random function F, drawn from a secret seed as K_n =
// F(seed): the seed is the chain's element past its end. The sender uses
// the keys in the forward direction K_1, K_2, ..., so a receiver holding
// the commitment K_0 can authenticate any later-disclosed key by iterating
// F, and a lost key K_i can be recovered from any subsequent key K_j (j >
// i) by applying F (j - i) times. Security rests on F being one-way.
//
// F is HMAC-SHA256 keyed by the chain element over a fixed
// domain-separation label, truncated to KeySize bytes. A second PRF F'
// (different label) derives the per-interval MAC key from the chain
// element, as in the TESLA specification, so that disclosing a chain
// element never discloses a MAC key directly.
var (
	labelChain = []byte("tesla-chain-v1")
	labelMAC   = []byte("tesla-mackey-v1")
)

// prfStepInto computes K_{i-1} from K_i into out (KeySize bytes) using
// scratch, allocating nothing in steady state. out and key may alias: the
// key is consumed before out is written.
func prfStepInto(s *MACScratch, out, key []byte) {
	sum := s.Sum(key, labelChain)
	copy(out[:KeySize], sum[:KeySize])
}

// DeriveMACKeyInto derives the per-interval MAC key K'_i from chain
// element K_i into out (KeySize bytes) using scratch.
func DeriveMACKeyInto(s *MACScratch, out, chainKey []byte) {
	sum := s.Sum(chainKey, labelMAC)
	copy(out[:KeySize], sum[:KeySize])
}

// RecoverEarlierKeyInto derives K_target from a later element K_from into
// out (KeySize bytes) using scratch, without allocating. fromKey is read
// whole by the first step, so the seed, of any length, derives K_n as
// element n+1. out and fromKey may alias.
func RecoverEarlierKeyInto(s *MACScratch, out, fromKey []byte, from, target int) error {
	if target >= from {
		return fmt.Errorf("crypto: cannot recover key %d from earlier key %d", target, from)
	}
	if target < 0 {
		return fmt.Errorf("crypto: negative key index %d", target)
	}
	var cur [KeySize]byte
	prfStepInto(s, cur[:], fromKey)
	for i := from - 1; i > target; i-- {
		prfStepInto(s, cur[:], cur[:])
	}
	copy(out[:KeySize], cur[:])
	return nil
}
