package scheme_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
)

// wireScheme builds a catalogue scheme at block size n with fixed
// parameters, so its output is a function of (id, n, block, payloads).
func wireScheme(t *testing.T, id string, n int) scheme.Scheme {
	t.Helper()
	e, err := catalog.Build(catalog.Spec{
		ID: id, N: n, M: 2, D: 1, A: 3, B: 3,
		Lag: 4, Interval: time.Millisecond, Seed: []byte("wire"),
	}, crypto.NewSignerFromString("wire"))
	if err != nil {
		t.Fatal(err)
	}
	return e.Scheme
}

// wirePayloads gives block b n payloads of varied length and content.
func wirePayloads(n int, b uint64) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 100+(i*37)%412)
		for j := range p {
			p[j] = byte(i + 7*j + int(b))
		}
		out[i] = p
	}
	return out
}

// encodeAll returns each packet's wire encoding.
func encodeAll(t *testing.T, pkts []*packet.Packet) [][]byte {
	t.Helper()
	out := make([][]byte, len(pkts))
	for i, p := range pkts {
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = enc
	}
	return out
}

// wireDigest is the SHA-256 of a block's length-prefixed wire encodings,
// in send order.
func wireDigest(t *testing.T, pkts []*packet.Packet) string {
	t.Helper()
	h := sha256.New()
	for _, enc := range encodeAll(t, pkts) {
		h.Write(binary.AppendUvarint(nil, uint64(len(enc))))
		h.Write(enc)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// wireDigests pins every catalogue scheme's Authenticate output, byte for
// byte: a sender rewrite that moves one bit of one packet changes a digest
// here before it moves a golden, a signature or a receiver.
var wireDigests = map[string]string{
	"rohatgi/n=8/block=0":    "e390a7ecec685df78b150b66187c056a5269cbd50df9651a99b616f1f31d900a",
	"rohatgi/n=8/block=1":    "4c7951c47e2a13be856cb8d471bc864cbbd78b4253541cbb805a3d9091fb49f5",
	"rohatgi/n=8/block=2":    "2d96114b2dbe5de534e80b011f345fc131f8037a5cc4bf2bc2674a9e009222e6",
	"rohatgi/n=128/block=0":  "7fe27ae184828faff0ec26f0952ac0b3cf41a17c4089866bc7cdd822533f492c",
	"rohatgi/n=128/block=1":  "27b9651c7da5dff3c25629f1c47a9e230524dd4cd03fbcd8d134de0dd404924b",
	"rohatgi/n=128/block=2":  "416e2a409c181419ec05bc9723c235dd4570a3ecb4f00f0df1bcc603166fbe18",
	"emss/n=8/block=0":       "38ce0e009a772be077435c32af2438177168da88641ccf0874ae208631b5f64c",
	"emss/n=8/block=1":       "e4b811680a7f71aa6ab0fef164276f94b3c52b21d7a85a9c592c5fc1adcc959a",
	"emss/n=8/block=2":       "9b24b750e03238f2364f008c2592dc021b28d851262bf7954a81e8c223a3a05a",
	"emss/n=128/block=0":     "c52c57ea3a86a463128d1264e927ffbb8c77ac61006fdbffed8842af55b666a3",
	"emss/n=128/block=1":     "9ad9f3b807216fbdc47693d48ca1d7bf23d0217fdc41948e132fa18daf8cfd43",
	"emss/n=128/block=2":     "bcec525044c3e6412ae65a7957adab51a863994219fbc98430a3391195aa5f51",
	"augchain/n=8/block=0":   "95491dea6a6b3c47c2280b9b32c89da42c00cec4e872c31f77f636b245dc7380",
	"augchain/n=8/block=1":   "b2dfe66f9844729bd3dafe83c8b31e49abcd3e07cbd71ce98da0b0f094e235bc",
	"augchain/n=8/block=2":   "1031fc8cc4b79dd7009a3ffc8e1aeb6ac2e8081d955b39daaad6ea28ccb4cb47",
	"augchain/n=128/block=0": "3d480becd0eb40ebd2247a363f22368d5485db771a2d4853f1d08720d6f1a118",
	"augchain/n=128/block=1": "2469a8da3bb05971aba554dacfe0cab64ce901cee1e36802779f2b4c7f93865c",
	"augchain/n=128/block=2": "dfb3c822989555ae3b3abef5b1417bf9e7b8d995d0170943ad3d7132ca18c0f3",
	"authtree/n=8/block=0":   "39b77f1c94341a66eec5580f06f7e724e341a71ee74803c82f47678ea2cd0dfd",
	"authtree/n=8/block=1":   "47a92da77c0b4a2291e029769bb163963f873abd2d4325840b0282aefd9b3537",
	"authtree/n=8/block=2":   "ca175ab500e440a982dc9a3e5558b444ea395c9bd3b3eba7b20764ab487ea710",
	"authtree/n=128/block=0": "a622749893e0169a85562561503a11ac9b8be73dd5bfde56be4406c91a2a6e90",
	"authtree/n=128/block=1": "e1adef62206ac9df0ba76352657d0555e0bdc4e642560d8eb3c2811bb00ecbe0",
	"authtree/n=128/block=2": "9ee3856fe47cbe297093804ead6daa84b3284364366c06f88c5710cd7d24bf6e",
	"signeach/n=8/block=0":   "4bc2e4f133de9415e54e93015638619d50074f0427a5cf500bc8b85122ac7e5d",
	"signeach/n=8/block=1":   "f78271947ac5e917b30144bb2ef42e7c1b8bb373420530fd639ea1fbf2fbb730",
	"signeach/n=8/block=2":   "f819ec41ee572b2995c5ffdda32d9d59ab4b5ed536cb151662564c74d86ee987",
	"signeach/n=128/block=0": "36e205e149ead72e2831f43a2a71bbb22de84455c9bf3f560a4ba07988b9cd8f",
	"signeach/n=128/block=1": "191996bf1c6bd249938e92e73a037cff7c104c129ac9398a963c0e85a169d755",
	"signeach/n=128/block=2": "7df764f914c244928d2d1668c2c14199fe11b9850fb36477b11d7609ce2a865d",
	"tesla/n=8/block=0":      "b2ddbfc53f028d194f2589a1ec005f2ff3e61cea9ec1d5ff51cc4d17ce833741",
	"tesla/n=8/block=1":      "0a23ce350597bce24326f7c813b139086c5681f56ef1752ac4082d10fa0faaf4",
	"tesla/n=8/block=2":      "5b6f9111023204619ea7ecc110b1af744eab083109a872083a63255058547547",
	"tesla/n=128/block=0":    "d978b58a0d9e3f71509b6c8d4701bcd55dd0ff570ff63c404d4394dcad306825",
	"tesla/n=128/block=1":    "609d426e19c5dc15f528cbe72a19815d77ce73a009abf255c645f189d28a941b",
	"tesla/n=128/block=2":    "e97f1f93ac686aeb26b9cb711c11fb9c8cf0d7c006a20b82a414465f5d86a2b2",
	"tesla/n=3/block=0":      "e1296f28ed4e6eb96bdb176d99901510c0ccfd7720bc0b4f92760b89c5e2fd9a",
	"tesla/n=3/block=1":      "f499a05b5bc8758b8a913559ead76362e47e1f3af59ae832901b84b27eae12ae",
	"tesla/n=3/block=2":      "dada74c157b03d046b802725428ae178b0547e9a761716b55340bda28a8897b4",
}

func TestAuthenticateWireDigests(t *testing.T) {
	for _, id := range catalog.IDs() {
		sizes := []int{8, 128}
		if id == "tesla" {
			// Below the lag of 4, the trailing packets that would disclose
			// keys before K_1 are left out.
			sizes = append(sizes, 3)
		}
		for _, n := range sizes {
			s := wireScheme(t, id, n)
			for b := uint64(0); b < 3; b++ {
				key := fmt.Sprintf("%s/n=%d/block=%d", id, n, b)
				pkts, err := s.Authenticate(b, wirePayloads(n, b))
				if err != nil {
					t.Fatal(err)
				}
				if got := wireDigest(t, pkts); got != wireDigests[key] {
					t.Errorf("%s: wire digest %s, pinned %s", key, got, wireDigests[key])
				}
			}
		}
	}
}

// TestAuthenticateDeferredWireIdentity checks that every deferred scheme's
// AuthenticateDeferred, once Attach has installed the signature over the
// pending content, encodes exactly as Authenticate does.
func TestAuthenticateDeferredWireIdentity(t *testing.T) {
	signer := crypto.NewSignerFromString("wire")
	deferred := 0
	for _, id := range catalog.IDs() {
		for _, n := range []int{8, 128} {
			s := wireScheme(t, id, n)
			da, ok := s.(scheme.DeferredAuthenticator)
			if !ok {
				continue
			}
			deferred++
			for b := uint64(0); b < 3; b++ {
				want, err := s.Authenticate(b, wirePayloads(n, b))
				if err != nil {
					t.Fatal(err)
				}
				got, pr, err := da.AuthenticateDeferred(b, wirePayloads(n, b))
				if err != nil {
					t.Fatal(err)
				}
				pr.Attach(signer.Sign(pr.Content))
				wantEnc, gotEnc := encodeAll(t, want), encodeAll(t, got)
				if len(gotEnc) != len(wantEnc) {
					t.Fatalf("%s n=%d block %d: %d deferred packets, want %d", id, n, b, len(gotEnc), len(wantEnc))
				}
				for i := range wantEnc {
					if !bytes.Equal(gotEnc[i], wantEnc[i]) {
						t.Errorf("%s n=%d block %d: deferred wire packet %d differs from Authenticate's", id, n, b, i)
					}
				}
			}
		}
	}
	if deferred == 0 {
		t.Fatal("no catalogue scheme implements DeferredAuthenticator")
	}
}

// TestAuthenticateSlabIsolation holds the ownership contract of
// Scheme.Authenticate: packets of one block may share backing arrays, but
// a caller that appends to one packet's Hashes, MAC, DisclosedKey or
// Signature, or overwrites a digest it carries, changes no other packet.
func TestAuthenticateSlabIsolation(t *testing.T) {
	const n = 8
	for _, id := range catalog.IDs() {
		s := wireScheme(t, id, n)
		for k := 0; k < s.WireCount(); k++ {
			pkts, err := s.Authenticate(1, wirePayloads(n, 1))
			if err != nil {
				t.Fatal(err)
			}
			before := encodeAll(t, pkts)
			p := pkts[k]
			if len(p.Hashes) > 0 {
				p.Hashes[0].Digest[0] ^= 0xff
			}
			p.Hashes = append(p.Hashes, packet.HashRef{TargetIndex: 0xee, Digest: crypto.Digest{0xee}})
			p.MAC = append(p.MAC, 0xee)
			p.DisclosedKey = append(p.DisclosedKey, 0xee)
			p.Signature = append(p.Signature, 0xee)
			for i, q := range pkts {
				if q == p {
					continue // the packet itself, or a copy of the same root
				}
				enc, err := q.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc, before[i]) {
					t.Errorf("%s: writing wire packet %d changed wire packet %d", id, k, i)
				}
			}
		}
	}
}
