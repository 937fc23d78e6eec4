package main

import (
	"bytes"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/tesla"
	"mcauth/internal/stream"
	"mcauth/internal/transport"
)

// The ledger rungs are isolated single-goroutine loops around one public
// call each, at the serving shape (blocks of 8, 256-byte payloads, batches
// of 64 roots), so that their sum can be held against what a message costs
// the serve workloads. README.md gives the two sums.

// rung calls fn for about budget, reading the clock every batch calls, and
// returns the mean nanoseconds per call.
func rung(budget time.Duration, batch int, fn func()) float64 {
	var calls int
	t0 := time.Now()
	for {
		for range batch {
			fn()
		}
		calls += batch
		if el := time.Since(t0); el >= budget {
			return float64(el) / float64(calls)
		}
	}
}

var ledgerSchemes = []string{"rohatgi", "emss", "augchain", "authtree", "signeach", "tesla"}

// servingScheme is name at the serving shape. mixedScheme covers the four
// schemes mcserved rotates; the other two take their bench_test.go
// parameters.
func servingScheme(name string, signer crypto.Signer) (scheme.Scheme, error) {
	switch name {
	case "emss":
		return mixedScheme(0, signer)
	case "rohatgi":
		return mixedScheme(1, signer)
	case "authtree":
		return mixedScheme(2, signer)
	case "signeach":
		return mixedScheme(3, signer)
	case "augchain":
		return augchain.New(augchain.Config{N: blockSize, A: 3, B: 3}, signer)
	default:
		return tesla.New(tesla.Config{
			N: blockSize, Lag: 4, Interval: time.Millisecond,
			Start: time.Unix(0, 0), Seed: []byte("bench"),
		}, signer)
	}
}

// mixedMean averages a per-scheme rung over mcserved's mixed rotation.
func mixedMean(l map[string]float64, prefix string) float64 {
	return (l[prefix+"emss"] + l[prefix+"rohatgi"] + l[prefix+"authtree"] + l[prefix+"signeach"]) / 4
}

func blockPayloads() [][]byte {
	payloads := make([][]byte, blockSize)
	for i := range payloads {
		payloads[i] = make([]byte, payloadSize)
		payloads[i][0] = byte(i)
	}
	return payloads
}

// signedBatch is one full batch of distinct contents and their signature
// blobs: what the serving tier's batch signer hands out per flush.
func signedBatch(signer crypto.Signer) (contents, blobs [][]byte, err error) {
	contents = make([][]byte, batchSize)
	for i := range contents {
		contents[i] = []byte{byte(i)}
	}
	blobs, err = crypto.BatchSign(signer, contents)
	return contents, blobs, err
}

// failer returns the rungs' error check: a rung that cannot run counts as
// a failed operation of the traced measurement.
func failer(m *measurement) func(error) bool {
	return func(err error) bool {
		if err != nil {
			m.failed++
		}
		return err != nil
	}
}

// senderRungs times the sending half's layers and sums them against what
// a message cost send_saturate's process.
func senderRungs(_ params, budget time.Duration, m *measurement) {
	l := m.layer
	each := budget / 13
	fail := failer(m)
	signer := crypto.NewSignerFromString(signingKey)
	content := make([]byte, 64)
	l["crypto.sign_ns"] = rung(each, 1, func() { signer.Sign(content) })
	body := make([]byte, payloadSize+32)
	l["crypto.hash_ns"] = rung(each, 64, func() { crypto.HashBytes(body) })

	bs, err := crypto.NewBatchSigner(signer, batchSize)
	if fail(err) {
		return
	}
	deliver := func([]byte) {}
	l["crypto.batchsign_ns_per_root"] = rung(each, batchSize, func() {
		_, err := bs.Enqueue(content, deliver) // the batchSize-th call signs
		fail(err)
	})

	payloads := blockPayloads()
	var sample *packet.Packet
	for _, name := range ledgerSchemes {
		s, err := servingScheme(name, signer)
		if fail(err) {
			return
		}
		var block uint64
		l["scheme.auth_ns_per_pkt."+name] = rung(each, 1, func() {
			block++
			pkts, err := s.Authenticate(block, payloads)
			if !fail(err) && name == "emss" {
				sample = pkts[1]
			}
		}) / blockSize
	}

	var buf []byte
	l["packet.encode_ns"] = rung(each, 64, func() {
		buf, err = sample.AppendEncode(buf[:0])
		fail(err)
	})
	var decoded packet.Packet
	l["packet.decode_ns"] = rung(each, 64, func() { fail(packet.DecodeInto(&decoded, buf)) })

	var pipe bytes.Buffer
	mw, mr := transport.NewMuxFrameWriter(&pipe), transport.NewMuxFrameReader(&pipe)
	l["transport.mux_mem_roundtrip_ns"] = rung(each, 64, func() {
		if !fail(mw.WritePacket(1, sample)) {
			_, _, err := mr.ReadPacket()
			fail(err)
		}
	})

	// PushDeferredAt and, when it completes a block, Attach: everything the
	// serving tier does to a message between Publish and deliver except
	// sign the batch. One sender per scheme of the mixed rotation.
	_, blobs, err := signedBatch(signer)
	if fail(err) {
		return
	}
	var senders []*stream.Sender
	for id := uint64(0); id < 4; id++ {
		s, err := mixedScheme(id, crypto.BatchCapable(signer))
		if fail(err) {
			return
		}
		snd, err := stream.NewSender(s, 0)
		if fail(err) {
			return
		}
		senders = append(senders, snd)
	}
	now := time.Now()
	var pushes int
	l["stream.push_ns"] = rung(each, 4*blockSize, func() {
		pushes++
		db, err := senders[pushes%4].PushDeferredAt(payloads[0], now)
		if !fail(err) && db != nil && db.Root != nil {
			db.Root.Attach(blobs[0])
		}
	})

	// One message is one wire packet in every scheme of the rotation; the
	// far end of send_saturate runs in the same process and pays the
	// round trip's decode.
	explained := l["stream.push_ns"] + l["crypto.batchsign_ns_per_root"]/blockSize + l["transport.mux_mem_roundtrip_ns"]
	l["ledger.send_cpu_ns_per_msg"] = m.e2e["cpu_us_per_op"] * 1e3
	l["ledger.send_explained_share"] = ratio(explained, l["ledger.send_cpu_ns_per_msg"])
}

// servedBlocks authenticates batchSize blocks of s the way the serving
// tier does: roots deferred where the scheme can, one batch signature over
// all of them.
func servedBlocks(s scheme.Scheme, signer crypto.Signer) ([]*packet.Packet, error) {
	var (
		all      []*packet.Packet
		roots    []*scheme.PendingRoot
		contents [][]byte
	)
	payloads := blockPayloads()
	da, deferred := s.(scheme.DeferredAuthenticator)
	for b := uint64(0); b < batchSize; b++ {
		if !deferred {
			pkts, err := s.Authenticate(b, payloads)
			if err != nil {
				return nil, err
			}
			all = append(all, pkts...)
			continue
		}
		pkts, root, err := da.AuthenticateDeferred(b, payloads)
		if err != nil {
			return nil, err
		}
		all = append(all, pkts...)
		roots = append(roots, root)
		contents = append(contents, root.Content)
	}
	if len(roots) > 0 {
		blobs, err := crypto.BatchSign(signer, contents)
		if err != nil {
			return nil, err
		}
		for i, root := range roots {
			root.Attach(blobs[i])
		}
	}
	return all, nil
}

// receiverRungs times the receiving half's layers and sums them against
// what a message cost serve_saturate's receiving goroutine.
func receiverRungs(_ params, budget time.Duration, m *measurement) {
	l := m.layer
	each := budget / 10
	fail := failer(m)
	signer := crypto.BatchCapable(crypto.NewSignerFromString(signingKey))
	content := make([]byte, 64)
	sig := signer.Sign(content)
	plain := crypto.NewSignerFromString(signingKey).Public()
	l["crypto.verify_ns"] = rung(each, 1, func() {
		if !plain.Verify(content, sig) {
			m.failed++
		}
	})
	key, body := make([]byte, crypto.KeySize), make([]byte, payloadSize+32)
	l["crypto.mac_ns"] = rung(each, 64, func() { crypto.MAC(key, body) })

	contents, blobs, err := signedBatch(signer)
	if fail(err) {
		return
	}
	// A fresh cache every pass, as every batch off the wire is new.
	l["crypto.batchverify_ns_per_root"] = rung(each, 1, func() {
		cache, err := crypto.NewSigCache(verifyCache)
		if fail(err) {
			return
		}
		q, err := crypto.NewBatchVerifyQueue(batchSize, cache)
		if fail(err) {
			return
		}
		for i, blob := range blobs {
			_, err := q.Enqueue(signer.Public(), contents[i], blob, func(ok bool) {
				if !ok {
					m.failed++
				}
			})
			fail(err)
		}
		q.Resolve()
	}) / batchSize

	at := time.Unix(0, 0)
	var wire []byte
	for _, name := range ledgerSchemes {
		s, err := servingScheme(name, signer)
		if fail(err) {
			return
		}
		pkts, err := servedBlocks(s, signer)
		if fail(err) {
			return
		}
		if name == "emss" {
			if wire, err = pkts[1].Encode(); fail(err) {
				return
			}
		}
		// The receiver as bench_test.go's BenchmarkVerifyServing drives
		// it: ingest the batch, resolve once, drain once.
		l["verifier.ns_per_pkt."+name] = rung(each, 1, func() {
			rcv, err := stream.NewReceiver(s, batchSize+1)
			if fail(err) {
				return
			}
			cache, err := crypto.NewSigCache(verifyCache)
			if fail(err) {
				return
			}
			q, err := crypto.NewBatchVerifyQueue(verifyBatch, cache)
			if fail(err) {
				return
			}
			rcv.SetBatchVerify(q)
			var authenticated int
			for i, p := range pkts {
				// TESLA reads arrival times: on schedule, one slot each.
				auths, err := rcv.Ingest(p, at.Add(time.Duration(i%s.WireCount())*time.Millisecond+time.Microsecond))
				fail(err)
				authenticated += len(auths)
			}
			q.Resolve()
			authenticated += len(rcv.DrainDeferred())
			if authenticated < batchSize*blockSize {
				m.failed++
			}
		}) / float64(len(pkts))
	}
	var decoded packet.Packet
	l["packet.decode_ns"] = rung(each, 64, func() { fail(packet.DecodeInto(&decoded, wire)) })

	explained := l["packet.decode_ns"] + mixedMean(l, "verifier.ns_per_pkt.")
	l["ledger.recv_explained_share"] = ratio(explained, l["ledger.recv_ns_per_msg"])
}
