// Package signeach implements the naive sign-every-packet baseline the
// paper's introduction dismisses as an "overkill solution": every packet
// carries a full digital signature over its content. It is maximally
// robust (every received packet verifies immediately) but pays a signature
// of overhead — and a signing operation — per packet.
package signeach

import (
	"fmt"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/verifier"
)

// SignEach is the baseline scheme over blocks of n packets.
type SignEach struct {
	n      int
	signer crypto.Signer
}

var _ scheme.Scheme = (*SignEach)(nil)

// New builds the baseline.
func New(n int, signer crypto.Signer) (*SignEach, error) {
	if n < 1 {
		return nil, fmt.Errorf("signeach: block size %d must be >= 1", n)
	}
	if signer == nil {
		return nil, fmt.Errorf("signeach: nil signer")
	}
	return &SignEach{n: n, signer: signer}, nil
}

// Name implements Scheme.
func (s *SignEach) Name() string { return fmt.Sprintf("signeach(n=%d)", s.n) }

// BlockSize implements Scheme.
func (s *SignEach) BlockSize() int { return s.n }

// WireCount implements Scheme.
func (s *SignEach) WireCount() int { return s.n }

// Graph implements Scheme. As with the authentication tree, every packet is
// its own P_sign; the star rendering gives the correct q_i = 1 semantics,
// while overhead must be read from the wire.
func (s *SignEach) Graph() (*depgraph.Graph, error) {
	g, err := depgraph.New(s.n, 1)
	if err != nil {
		return nil, err
	}
	for i := 2; i <= s.n; i++ {
		if err := g.AddEdge(1, i); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// VertexOf implements scheme.VertexMapper: wire index i is graph vertex i.
func (s *SignEach) VertexOf(index uint32) (int, bool) {
	if index < 1 || int(index) > s.n {
		return 0, false
	}
	return int(index), true
}

// Authenticate implements Scheme: the packets come from one slab, and
// each is signed over one reused content buffer.
func (s *SignEach) Authenticate(blockID uint64, payloads [][]byte) ([]*packet.Packet, error) {
	if len(payloads) != s.n {
		return nil, fmt.Errorf("signeach: got %d payloads, want %d", len(payloads), s.n)
	}
	pk := make([]packet.Packet, s.n)
	pkts := make([]*packet.Packet, s.n)
	var content []byte
	for i, payload := range payloads {
		p := &pk[i]
		*p = packet.Packet{BlockID: blockID, Index: uint32(i + 1), Payload: payload}
		content = p.AppendContent(content[:0])
		p.Signature = s.signer.Sign(content)
		pkts[i] = p
	}
	return pkts, nil
}

// NewVerifier implements Scheme.
func (s *SignEach) NewVerifier(env verifier.Env) (scheme.Verifier, error) {
	sv := &signEachVerifier{n: s.n, pub: s.signer.Public()}
	if err := sv.Reset(env); err != nil {
		return nil, err
	}
	return sv, nil
}

type signEachVerifier struct {
	n         int
	pub       crypto.Verifier
	authentic map[uint32]bool

	// Receiver fast path: content staging and blob path walks reuse
	// scratch, and the underlying public-key check of each batch blob is
	// cached in env.Sigs, so the K packets of one MABS batch cost one
	// Ed25519 verify. Without a shared memo the verifier keeps its own,
	// ownSigs, across Resets: a sender that signs in Merkle batches gives
	// the K blobs of one batch a shared inner signature, so it pays off
	// within one block, and a verdict memo is sound to keep (see
	// verifier.Env.Sigs).
	vs      crypto.VerifyScratch
	content []byte
	ownSigs *crypto.SigCache
	// events is what Ingest returns and Sink is passed (see
	// scheme.Verifier.Ingest on who owns it).
	events []verifier.Event

	// env: Cache, BatchQ and Sink as documented; MaxBuffered caps parked
	// signatures (only deferred mode buffers).
	env verifier.Env
	rec verifier.Recorder
}

// Reset implements scheme.Verifier.
func (sv *signEachVerifier) Reset(env verifier.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if env.Sigs == nil {
		if sv.ownSigs == nil {
			sigs, err := crypto.NewSigCache(crypto.MaxBatch)
			if err != nil {
				return err
			}
			sv.ownSigs = sigs
		}
		env.Sigs = sv.ownSigs
	}
	sv.env = env
	sv.rec.Reset(env)
	clear(sv.authentic)
	clear(sv.events)
	sv.events = sv.events[:0]
	return nil
}

var _ scheme.Verifier = (*signEachVerifier)(nil)

// accept marks p authentic on arrival — nothing here waits except on a
// deferred verdict, which stands at the packet's arrival time — and returns
// its event in sv.events.
func (sv *signEachVerifier) accept(p *packet.Packet, at time.Time) []verifier.Event {
	sv.authentic[p.Index] = true
	sv.rec.Authenticated(p, at, at)
	sv.events = append(sv.events[:0], verifier.Event{Index: p.Index, Payload: p.Payload})
	return sv.events
}

// resolve applies one deferred signature verdict.
func (sv *signEachVerifier) resolve(p *packet.Packet, arrived time.Time, ok bool) {
	sv.rec.Resolved(p, arrived)
	if sv.authentic[p.Index] {
		sv.rec.Duplicate()
		return
	}
	if !ok {
		sv.rec.Rejected(p, arrived, "bad_signature")
		return
	}
	events := sv.accept(p, arrived)
	if sv.env.Sink != nil {
		sv.env.Sink(events)
	}
}

// Ingest implements scheme.Verifier.
func (sv *signEachVerifier) Ingest(p *packet.Packet, at time.Time) ([]verifier.Event, error) {
	if p == nil {
		return nil, fmt.Errorf("signeach: nil packet")
	}
	if p.Index < 1 || int(p.Index) > sv.n {
		return nil, fmt.Errorf("signeach: index %d out of [1,%d]", p.Index, sv.n)
	}
	sv.rec.Received()
	if sv.authentic == nil {
		sv.authentic = make(map[uint32]bool)
	}
	if sv.authentic[p.Index] {
		sv.rec.Duplicate()
		return nil, nil
	}
	if sv.env.Cache != nil {
		if d := sv.env.Cache.DigestOf(p); sv.env.Cache.IsAuthentic(sv.env.StreamID, p.BlockID, d) {
			sv.rec.CacheHit()
			return sv.accept(p, at), nil
		}
	}
	sv.content = p.AppendContent(sv.content[:0])
	if sv.env.BatchQ != nil {
		if !sv.rec.Park(p, at, 0) {
			return nil, nil
		}
		// The queue retains the content; sv.content is reused scratch.
		held := append([]byte(nil), sv.content...)
		sv.env.BatchQ.Enqueue(sv.pub, held, p.Signature, func(ok bool) {
			sv.resolve(p, at, ok)
		})
		return nil, nil
	}
	if !crypto.VerifyAnyCached(sv.env.Sigs, &sv.vs, sv.pub, sv.content, p.Signature) {
		sv.rec.Rejected(p, at, "bad_signature")
		return nil, nil
	}
	return sv.accept(p, at), nil
}

// Stats implements scheme.Verifier.
func (sv *signEachVerifier) Stats() verifier.Stats { return sv.rec.Stats() }
