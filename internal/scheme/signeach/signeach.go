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

	// Receiver fast path: the underlying public-key check of each batch
	// blob is cached in the Env's Sigs, so the K packets of one MABS batch
	// cost one Ed25519 verify. Without a shared memo the verifier keeps its
	// own, ownSigs, across Resets: a sender that signs in Merkle batches
	// gives the K blobs of one batch a shared inner signature, so it pays
	// off within one block, and a verdict memo is sound to keep (see
	// verifier.Env.Sigs).
	content []byte
	ownSigs *crypto.SigCache
	// events is what Ingest returns and Sink is passed (see
	// scheme.Verifier.Ingest on who owns it).
	events []verifier.Event

	// rec holds the Env: Cache, BatchQ and Sink as documented; MaxBuffered
	// caps parked signatures (only deferred mode buffers).
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
	sv.rec.Reset(env)
	clear(sv.authentic)
	clear(sv.events)
	sv.events = sv.events[:0]
	return nil
}

var (
	_ scheme.Verifier   = (*signEachVerifier)(nil)
	_ verifier.Acceptor = (*signEachVerifier)(nil)
)

// Authentic implements verifier.Acceptor.
func (sv *signEachVerifier) Authentic(p *packet.Packet) bool { return sv.authentic[p.Index] }

// Accept implements verifier.Acceptor: p authenticates on arrival —
// nothing here waits except on a deferred verdict, which stands at the
// packet's arrival time — and its event is returned in sv.events.
func (sv *signEachVerifier) Accept(p *packet.Packet, at time.Time) []verifier.Event {
	sv.authentic[p.Index] = true
	sv.rec.Authenticated(p, at, at)
	sv.events = append(sv.events[:0], verifier.Event{Index: p.Index, Payload: p.Payload})
	return sv.events
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
	if sv.rec.Cached(p) {
		return sv.Accept(p, at), nil
	}
	sv.content = p.AppendContent(sv.content[:0])
	if !sv.rec.Signature(sv, sv.pub, p, sv.content, nil, at, 0) {
		return nil, nil
	}
	return sv.Accept(p, at), nil
}

// Stats implements scheme.Verifier.
func (sv *signEachVerifier) Stats() verifier.Stats { return sv.rec.Stats() }
