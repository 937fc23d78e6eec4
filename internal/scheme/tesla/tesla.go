// Package tesla implements TESLA (Perrig et al.), the MAC-based scheme the
// paper analyzes in Section 3.2: each packet is MACed under a per-interval
// key from a one-way chain; keys are disclosed after a delay of Lag
// intervals; a signed bootstrap packet commits to the chain and to the
// timing schedule. A receiver accepts a packet only if it arrived before
// the sender could have disclosed the packet's key (the safety condition —
// the paper's condition (2)), and verifies it once any later chain key
// arrives (condition (1): a lost key is recovered from any subsequent key).
//
// Wire layout per block: packet 1 is the bootstrap; data packet i (1..N)
// rides at wire index i+1 and is MACed under interval key K_i, disclosing
// K_{i-Lag}; Lag trailing key-only packets disclose the final keys so that
// every data packet has exactly N+1-i potential key carriers — matching
// the paper's λ_i = 1 - p^(n+1-i).
package tesla

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

// Config parameterizes a TESLA block.
type Config struct {
	// N is the number of data packets per block (one key interval each).
	N int
	// Lag is the key-disclosure delay in intervals (the paper's
	// T_disclose = Lag * Interval).
	Lag int
	// Interval is the per-packet send interval.
	Interval time.Duration
	// Start is T0, the send time of the bootstrap packet; data packet i
	// is sent at T0 + i*Interval.
	Start time.Time
	// Seed deterministically derives the key chain.
	Seed []byte
	// ClockSkew is the maximum receiver clock error budgeted by the
	// safety condition (subtracted from the disclosure deadline).
	ClockSkew time.Duration
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("tesla: block size %d must be >= 1", c.N)
	}
	if c.Lag < 1 {
		return fmt.Errorf("tesla: disclosure lag %d must be >= 1", c.Lag)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("tesla: interval %v must be positive", c.Interval)
	}
	if len(c.Seed) == 0 {
		return fmt.Errorf("tesla: empty chain seed")
	}
	if c.ClockSkew < 0 {
		return fmt.Errorf("tesla: negative clock skew %v", c.ClockSkew)
	}
	return nil
}

// TDisclose returns the disclosure delay Lag*Interval, the paper's
// T_disclose.
func (c Config) TDisclose() time.Duration {
	return time.Duration(c.Lag) * c.Interval
}

// QMin is the paper's Equation (7), q_min = (1-p)·ξ: the minimum
// authentication probability over a block under i.i.d. loss at rate p and
// Gaussian end-to-end delay of mean mu and standard deviation sigma, with
// key-disclosure delay tDisc, all in one time unit. The last data packet's
// key has one later carrier, so its λ_n = 1-p is the least of Equation
// (6)'s λ_i = 1 - p^(n+1-i); ξ = Φ((tDisc-mu)/sigma) is the chance a packet
// arrives before its key is disclosed (the safety condition). Every check
// is spelled so that NaN fails it.
func QMin(p, tDisc, mu, sigma float64) (float64, error) {
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("tesla: loss probability %v out of [0,1]", p)
	}
	if !(tDisc >= 0) {
		return 0, fmt.Errorf("tesla: disclosure delay %v must be >= 0", tDisc)
	}
	if !(mu >= 0) {
		return 0, fmt.Errorf("tesla: mean delay %v must be >= 0", mu)
	}
	if !(sigma >= 0) {
		return 0, fmt.Errorf("tesla: delay sigma %v must be >= 0", sigma)
	}
	return (1 - p) * stats.NormalCDF(tDisc, mu, sigma), nil
}

// SendTime returns the scheduled send time of the given wire index
// (1-based; 1 is the bootstrap).
func (c Config) SendTime(wireIndex int) time.Time {
	return c.Start.Add(time.Duration(wireIndex-1) * c.Interval)
}

// disclosureDeadline is the latest safe arrival time for data packet i
// (interval key K_i): the send time of the wire packet disclosing K_i.
func (c Config) disclosureDeadline(i int) time.Time {
	// K_i is disclosed by data packet i+Lag at wire index i+Lag+1.
	return c.SendTime(i + c.Lag + 1).Add(-c.ClockSkew)
}

// Scheme is the runnable TESLA instance.
type Scheme struct {
	cfg    Config
	signer crypto.Signer
}

var _ scheme.Scheme = (*Scheme)(nil)

// New builds the scheme.
func New(cfg Config, signer crypto.Signer) (*Scheme, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if signer == nil {
		return nil, errors.New("tesla: nil signer")
	}
	return &Scheme{cfg: cfg, signer: signer}, nil
}

// Name implements Scheme.
func (s *Scheme) Name() string {
	return fmt.Sprintf("tesla(n=%d, lag=%d)", s.cfg.N, s.cfg.Lag)
}

// BlockSize implements Scheme.
func (s *Scheme) BlockSize() int { return s.cfg.N }

// WireCount implements Scheme: bootstrap + N data + Lag trailing key
// packets.
func (s *Scheme) WireCount() int { return s.cfg.N + 1 + s.cfg.Lag }

// config returns the scheme's configuration.
func (s *Scheme) config() Config { return s.cfg }

// DataWireIndex returns the wire index of data packet i.
func DataWireIndex(i int) uint32 { return uint32(i + 1) }

// bootstrapSize is the length of the bootstrap payload: T0 unix-nanos |
// interval nanos | lag | n | commitment.
const bootstrapSize = 8 + 8 + 4 + 4 + crypto.KeySize

// appendBootstrap appends the bootstrap payload to buf.
func (s *Scheme) appendBootstrap(buf, commitment []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.cfg.Start.UnixNano()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.cfg.Interval))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.cfg.Lag))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.cfg.N))
	return append(buf, commitment...)
}

type bootstrapParams struct {
	start      time.Time
	interval   time.Duration
	lag        int
	n          int
	commitment []byte
}

func parseBootstrap(payload []byte) (bootstrapParams, error) {
	if len(payload) < bootstrapSize {
		return bootstrapParams{}, errors.New("tesla: bootstrap payload too short")
	}
	var bp bootstrapParams
	bp.start = time.Unix(0, int64(binary.BigEndian.Uint64(payload[0:8])))
	bp.interval = time.Duration(binary.BigEndian.Uint64(payload[8:16]))
	bp.lag = int(binary.BigEndian.Uint32(payload[16:20]))
	bp.n = int(binary.BigEndian.Uint32(payload[20:24]))
	bp.commitment = append([]byte(nil), payload[24:]...)
	if bp.interval <= 0 || bp.lag < 1 || bp.n < 1 {
		return bootstrapParams{}, errors.New("tesla: malformed bootstrap parameters")
	}
	return bp, nil
}

// Authenticate implements Scheme. The block is built from two slabs, its
// packets and one byte array holding the key chain K_0..K_N, the N MACs
// and the bootstrap payload, and every field cut from the byte slab is
// capacity-limited; the chain, the MAC keys and the MACs are computed on
// one MACScratch and one content buffer.
func (s *Scheme) Authenticate(blockID uint64, payloads [][]byte) ([]*packet.Packet, error) {
	n, lag := s.cfg.N, s.cfg.Lag
	if len(payloads) != n {
		return nil, fmt.Errorf("tesla: got %d payloads, want %d", len(payloads), n)
	}
	const keyLen, macLen = crypto.KeySize, crypto.MACSize
	slab := make([]byte, (n+1)*keyLen+n*macLen+bootstrapSize)
	key := func(i int) []byte { return slab[i*keyLen : (i+1)*keyLen : (i+1)*keyLen] }
	var mac crypto.MACScratch
	// The chain's seed, the configured seed and the block ID, is its
	// element n+1. It is staged in the content buffer before any content.
	buf := binary.BigEndian.AppendUint64(append([]byte(nil), s.cfg.Seed...), blockID)
	from := buf
	for i := n; i >= 0; i-- {
		if err := crypto.RecoverEarlierKeyInto(&mac, key(i), from, i+1, i); err != nil {
			return nil, fmt.Errorf("tesla: %w", err)
		}
		from = key(i)
	}
	macs := slab[(n+1)*keyLen : (n+1)*keyLen+n*macLen]
	boot := slab[len(slab)-bootstrapSize:]

	// Trailing key-only packets disclose the final Lag keys that exist.
	wire := 1 + n + min(lag, n)
	pk := make([]packet.Packet, wire)
	pkts := make([]*packet.Packet, wire)
	for w := range pk {
		pkts[w] = &pk[w]
	}
	pk[0] = packet.Packet{
		BlockID: blockID,
		Index:   1,
		Payload: s.appendBootstrap(boot[:0:bootstrapSize], key(0)),
	}
	buf = pk[0].AppendContent(buf[:0])
	pk[0].Signature = s.signer.Sign(buf)

	var mk [crypto.KeySize]byte
	for i := 1; i <= n; i++ {
		p := &pk[i]
		*p = packet.Packet{
			BlockID:  blockID,
			Index:    DataWireIndex(i),
			KeyIndex: uint32(i),
			Payload:  payloads[i-1],
		}
		if disclosed := i - lag; disclosed >= 1 {
			p.DisclosedKey = key(disclosed)
			p.DisclosedKeyIndex = uint32(disclosed)
		}
		crypto.DeriveMACKeyInto(&mac, mk[:], key(i))
		buf = p.AppendContent(buf[:0])
		sum := mac.Sum(mk[:], buf)
		p.MAC = macs[(i-1)*macLen : i*macLen : i*macLen]
		copy(p.MAC, sum[:])
	}
	// The trailing packet disclosing K_d rides at wire index d+Lag+1, as
	// the data packet disclosing it would.
	for w, d := n+1, max(1, n-lag+1); d <= n; w, d = w+1, d+1 {
		pk[w] = packet.Packet{
			BlockID:           blockID,
			Index:             uint32(d + lag + 1),
			DisclosedKey:      key(d),
			DisclosedKeyIndex: uint32(d),
		}
	}
	return pkts, nil
}

// Graph implements Scheme using the split message/key encoding of Section
// 3.2: vertex 1 is the bootstrap (P_sign); vertex 1+i is the message part
// of data packet i; vertex 1+N+j is the key K_j as carried on the wire.
// The bootstrap authenticates every key (edges 1 -> key_j), and key K_j
// authenticates every message with interval <= j (a lost key is recovered
// from any later one). The timing factor ξ is outside the graph, as in the
// paper. Note the graph has Θ(N²) edges; build it for analysis-sized N.
func (s *Scheme) Graph() (*depgraph.Graph, error) {
	n := s.cfg.N
	g, err := depgraph.New(2*n+1, 1)
	if err != nil {
		return nil, err
	}
	msg := func(i int) int { return 1 + i }
	key := func(j int) int { return 1 + n + j }
	for j := 1; j <= n; j++ {
		if err := g.AddEdge(1, key(j)); err != nil {
			return nil, err
		}
		for i := 1; i <= j; i++ {
			if err := g.AddEdge(key(j), msg(i)); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// NewVerifier implements Scheme.
func (s *Scheme) NewVerifier(env verifier.Env) (scheme.Verifier, error) {
	tv := &teslaVerifier{pub: s.signer.Public()}
	if err := tv.Reset(env); err != nil {
		return nil, err
	}
	return tv, nil
}

type pendingPacket struct {
	p       *packet.Packet
	arrived time.Time
}

type teslaVerifier struct {
	pub crypto.Verifier

	params    *bootstrapParams
	blockID   uint64
	bestIdx   int    // highest verified chain key index (0 = commitment)
	bestKey   []byte // verified chain key at bestIdx (commitment at 0)
	preBoot   []pendingPacket
	buffered  map[int][]pendingPacket // by key interval, awaiting disclosure
	authentic map[uint32]bool

	// Receiver fast path. Validating a disclosed key walks the PRF chain
	// down to the last verified key anyway; chainKeys memoizes every
	// element that walk derives, so per-packet verification is a table
	// lookup instead of an O(chain-length) re-walk (the old cost was
	// quadratic over a block). haveKey gates each entry: candidates are
	// written during the walk but only committed once the walk lands on
	// the verified anchor, so a forged disclosure never populates the
	// table. The scratch fields make MAC verification allocation-free.
	chainKeys [][crypto.KeySize]byte // index -> chain key K_i
	haveKey   []bool
	ms        crypto.MACScratch
	content   []byte
	mkBuf     [crypto.KeySize]byte
	keyBuf    [crypto.KeySize]byte
	// events is the per-Ingest result buffer, reused across calls (every
	// caller consumes the returned slice before ingesting again); pendPool
	// recycles the per-interval pending slices absorbKey releases.
	events   []verifier.Event
	pendPool [][]pendingPacket

	// rec holds the Env: MaxBuffered caps preBoot+buffered. BatchQ and Sink
	// are ignored: only the bootstrap packet is signed, and it is checked
	// synchronously.
	rec verifier.Recorder
}

var _ scheme.Verifier = (*teslaVerifier)(nil)

// Reset implements scheme.Verifier: the bootstrap parameters and every
// verified chain key go with the rest, so the next block bootstraps anew.
func (tv *teslaVerifier) Reset(env verifier.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	tv.rec.Reset(env)
	tv.params, tv.blockID, tv.bestIdx, tv.bestKey = nil, 0, 0, nil
	clear(tv.preBoot)
	tv.preBoot = tv.preBoot[:0]
	for interval, pends := range tv.buffered {
		clear(pends)
		tv.pendPool = append(tv.pendPool, pends[:0])
		delete(tv.buffered, interval)
	}
	clear(tv.authentic)
	tv.haveKey = tv.haveKey[:0]
	clear(tv.events)
	tv.events = tv.events[:0]
	return nil
}

// pendingTotal is the current pending-buffer occupancy.
func (tv *teslaVerifier) pendingTotal() int {
	total := len(tv.preBoot)
	for _, pends := range tv.buffered {
		total += len(pends)
	}
	return total
}

// Ingest implements scheme.Verifier. The returned event slice is reused
// by the next Ingest call; callers must consume or copy it before
// ingesting again.
func (tv *teslaVerifier) Ingest(p *packet.Packet, at time.Time) ([]verifier.Event, error) {
	if p == nil {
		return nil, errors.New("tesla: nil packet")
	}
	tv.rec.Received()
	if tv.authentic == nil {
		tv.authentic = make(map[uint32]bool)
		tv.buffered = make(map[int][]pendingPacket)
	}
	tv.events = tv.events[:0]

	if len(p.Signature) > 0 {
		return tv.ingestBootstrap(p, at)
	}
	if tv.params == nil {
		// Cannot evaluate the safety condition before the bootstrap;
		// hold the packet with its arrival time (bounded: a pre-
		// bootstrap flood must not grow memory without limit).
		if tv.rec.Hold(p, at, tv.pendingTotal()) {
			tv.preBoot = append(tv.preBoot, pendingPacket{p: p, arrived: at})
		}
		return nil, nil
	}
	if p.BlockID != tv.blockID {
		return nil, fmt.Errorf("tesla: packet block %d, verifier block %d", p.BlockID, tv.blockID)
	}
	return tv.ingestData(pendingPacket{p: p, arrived: at}, at)
}

func (tv *teslaVerifier) ingestBootstrap(p *packet.Packet, at time.Time) ([]verifier.Event, error) {
	if tv.params != nil {
		tv.rec.Duplicate()
		return nil, nil
	}
	if !tv.rec.Check(tv.pub, p, p.ContentBytes(), nil, at) {
		return nil, nil
	}
	bp, err := parseBootstrap(p.Payload)
	if err != nil {
		tv.rec.Rejected(p, at, "bad_bootstrap")
		return nil, nil
	}
	tv.params = &bp
	tv.blockID = p.BlockID
	tv.bestIdx = 0
	tv.bestKey = bp.commitment
	tv.rec.Authenticated(p, at, at)

	held := tv.preBoot
	tv.preBoot = nil
	for _, pend := range held {
		if pend.p.BlockID != tv.blockID {
			continue
		}
		if _, err := tv.ingestData(pend, at); err != nil {
			return tv.events, err
		}
	}
	return tv.events, nil
}

func (tv *teslaVerifier) ingestData(pend pendingPacket, at time.Time) ([]verifier.Event, error) {
	p := pend.p

	// Disclosed keys self-authenticate against the commitment chain and
	// may unlock buffered packets, regardless of this packet's own fate.
	if len(p.DisclosedKey) > 0 {
		tv.absorbKey(int(p.DisclosedKeyIndex), p.DisclosedKey, at)
	}

	if p.KeyIndex == 0 {
		// Key-only trailing packet: nothing further to verify.
		return tv.events, nil
	}
	if tv.authentic[p.Index] {
		tv.rec.Duplicate()
		return tv.events, nil
	}
	interval := int(p.KeyIndex)
	if interval > tv.params.n {
		tv.rec.Rejected(p, at, "bad_interval")
		return tv.events, nil
	}
	// Safety condition: the packet must have arrived before the sender
	// could have disclosed its key (condition (2) of the paper; packets
	// arriving later must be dropped to prevent forgery with the
	// now-public key).
	deadline := tv.params.start.
		Add(time.Duration(interval+tv.params.lag) * tv.params.interval)
	if !pend.arrived.Before(deadline) {
		tv.rec.Unsafe(p, at)
		return tv.events, nil
	}
	if tv.bestIdx >= interval {
		tv.verifyData(pend, at)
		return tv.events, nil
	}
	if !tv.rec.Hold(p, at, tv.pendingTotal()) {
		return tv.events, nil
	}
	pends, live := tv.buffered[interval]
	if !live && len(tv.pendPool) > 0 {
		last := len(tv.pendPool) - 1
		pends = tv.pendPool[last]
		tv.pendPool = tv.pendPool[:last]
	}
	tv.buffered[interval] = append(pends, pend)
	return tv.events, nil
}

// absorbKey validates a disclosed chain key and releases every buffered
// packet whose interval it covers. The validation walk memoizes every
// chain element it derives (committed only after the walk reaches the
// verified anchor), so later per-packet key lookups are O(1). Released
// packets append their events to tv.events.
func (tv *teslaVerifier) absorbKey(idx int, key []byte, at time.Time) {
	if tv.params == nil || idx < 1 || idx > tv.params.n {
		return
	}
	if idx <= tv.bestIdx {
		return // already covered by a later verified key
	}
	// Genuine chain elements are exactly KeySize bytes (the PRF truncates
	// to KeySize); anything else cannot reproduce the commitment.
	if len(key) != crypto.KeySize {
		tv.rec.Rejected(nil, at, "bad_key_chain")
		return
	}
	if len(tv.haveKey) == 0 {
		tv.chainKeys = slices.Grow(tv.chainKeys[:0], tv.params.n+1)[:tv.params.n+1]
		tv.haveKey = slices.Grow(tv.haveKey, tv.params.n+1)[:tv.params.n+1]
		clear(tv.haveKey)
	}
	var cur [crypto.KeySize]byte
	copy(cur[:], key)
	for i := idx; i > tv.bestIdx; i-- {
		tv.chainKeys[i] = cur
		if err := crypto.RecoverEarlierKeyInto(&tv.ms, cur[:], cur[:], i, i-1); err != nil {
			tv.rec.Rejected(nil, at, "bad_key_chain")
			return
		}
	}
	if !bytesEqual(cur[:], tv.bestKey) {
		tv.rec.Rejected(nil, at, "bad_key_chain")
		return
	}
	for i := idx; i > tv.bestIdx; i-- {
		tv.haveKey[i] = true
	}
	covered := tv.bestIdx
	tv.bestIdx = idx
	tv.bestKey = append(tv.bestKey[:0], key...)

	// Packets park only under intervals past the best key, so the newly
	// covered intervals are all there is to release; ascending, so the
	// event order is a function of the delivery, not of map iteration.
	for interval := covered + 1; interval <= idx; interval++ {
		pends, parked := tv.buffered[interval]
		if !parked {
			continue
		}
		for _, pend := range pends {
			tv.verifyData(pend, at)
		}
		delete(tv.buffered, interval)
		tv.pendPool = append(tv.pendPool, pends[:0])
	}
}

// intervalChainKey returns the verified chain key K_interval, preferring
// the memo table and falling back to a PRF walk from the best key.
func (tv *teslaVerifier) intervalChainKey(interval int) ([]byte, bool) {
	if interval < len(tv.haveKey) && tv.haveKey[interval] {
		return tv.chainKeys[interval][:], true
	}
	if interval == tv.bestIdx {
		return tv.bestKey, true
	}
	if interval > tv.bestIdx {
		return nil, false
	}
	if err := crypto.RecoverEarlierKeyInto(&tv.ms, tv.keyBuf[:], tv.bestKey, tv.bestIdx, interval); err != nil {
		return nil, false
	}
	return tv.keyBuf[:], true
}

// verifyData checks a safe packet's MAC under its (now known) interval
// key, appending the resulting event (if any) to tv.events.
func (tv *teslaVerifier) verifyData(pend pendingPacket, at time.Time) {
	p := pend.p
	if tv.authentic[p.Index] {
		// A duplicate of this wire packet was buffered before the key
		// arrived; emit nothing twice.
		tv.rec.Duplicate()
		return
	}
	interval := int(p.KeyIndex)
	chainKey, ok := tv.intervalChainKey(interval)
	if !ok {
		tv.rec.Rejected(p, at, "bad_key_chain")
		return
	}
	crypto.DeriveMACKeyInto(&tv.ms, tv.mkBuf[:], chainKey)
	tv.content = p.AppendContent(tv.content[:0])
	if !tv.ms.Verify(tv.mkBuf[:], tv.content, p.MAC) {
		tv.rec.Rejected(p, at, "bad_mac")
		return
	}
	tv.accept(pend, at)
}

// accept marks a packet authentic at time at and appends its event to
// tv.events.
func (tv *teslaVerifier) accept(pend pendingPacket, at time.Time) {
	p := pend.p
	tv.authentic[p.Index] = true
	tv.rec.Authenticated(p, pend.arrived, at)
	tv.events = append(tv.events, verifier.Event{Index: p.Index, Payload: p.Payload})
}

// Stats implements scheme.Verifier.
func (tv *teslaVerifier) Stats() verifier.Stats { return tv.rec.Stats() }

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}
