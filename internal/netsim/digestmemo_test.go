package netsim

import (
	"reflect"
	"testing"

	"mcauth/internal/crypto"
	"mcauth/internal/fault"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/verifier"
)

// withoutDigestMemo runs fn with every run's digest memo built empty, so
// each receiver hashes each packet it checks for itself, as before the memo.
func withoutDigestMemo(fn func()) {
	build := newDigestMemo
	newDigestMemo = func([]*packet.Packet) verifier.DigestMemo { return nil }
	defer func() { newDigestMemo = build }()
	fn()
}

// TestDigestMemoKeepsForgeriesOut holds the memo to its soundness argument
// on the two runs that deliver packets the sender never made: an overlay
// whose leaf relays serve forged repairs from poisoned stores, and a flat
// run through the fault injector (corrupted, truncated, duplicated and
// forged datagrams, all re-decoded). Neither authenticates a forgery, and
// every receiver's report is what it is with no memo at all: a packet the
// adversary made is not in the memo and is hashed for real.
func TestDigestMemoKeepsForgeriesOut(t *testing.T) {
	t.Run("overlay forged repairs", func(t *testing.T) {
		s, cfg, ocfg := lossyOverlay(t, true)
		ocfg.ForgeRepairs = []int{3, 4, 5, 6}
		run := func() *OverlayResult {
			res, err := RunOverlay(s, cfg, ocfg, 1, testPayloads(12))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		with := run()
		var without *OverlayResult
		withoutDigestMemo(func() { without = run() })
		totals := with.FaultTotals()
		if totals.ForgedInjected == 0 || totals.ForgedRejected == 0 {
			t.Fatalf("scenario is vacuous: %+v", totals)
		}
		if totals.ForgedAuthenticated != 0 {
			t.Fatalf("security invariant violated: %d forged repairs authenticated", totals.ForgedAuthenticated)
		}
		if with.TotalAuthenticated() == 0 {
			t.Fatal("nothing authenticated")
		}
		if !reflect.DeepEqual(with, without) {
			t.Error("overlay result differs between a run with the digest memo and one without")
		}
	})
	t.Run("fault injector", func(t *testing.T) {
		fc, err := fault.Preset("forgery", 0.1)
		if err != nil {
			t.Fatal(err)
		}
		fc.CorruptRate, fc.DuplicateRate = 0.1, 0.1
		s, err := emss.New(emss.Config{N: 16, M: 2, D: 1}, crypto.NewSignerFromString("s"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(t, 0.1, 24)
		cfg.ReliableIndices = []uint32{16}
		cfg.SigRetransmits = 2
		cfg.Faults = &fc
		run := func() *Result {
			res, err := Run(s, cfg, 1, testPayloads(16))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		with := run()
		var without *Result
		withoutDigestMemo(func() { without = run() })
		totals := with.FaultTotals()
		if totals.Corrupted == 0 || totals.Duplicated == 0 || totals.ForgedInjected == 0 {
			t.Fatalf("scenario is vacuous: %+v", totals)
		}
		if totals.ForgedAuthenticated != 0 {
			t.Fatalf("security invariant violated: %d forged packets authenticated", totals.ForgedAuthenticated)
		}
		if with.TotalAuthenticated() == 0 {
			t.Fatal("nothing authenticated")
		}
		if !reflect.DeepEqual(with, without) {
			t.Error("result differs between a run with the digest memo and one without")
		}
	})
}

// TestDigestMemoWorkerInvariant: the memo is built before the receivers
// start and only read afterwards, so neither the result nor the number of
// SHA-256 computations the run performs depends on the worker count — and
// that number is far below one per receiver per checked packet, which is
// what a run without the memo pays.
func TestDigestMemoWorkerInvariant(t *testing.T) {
	s, err := emss.New(emss.Config{N: 12, M: 2, D: 1}, crypto.NewSignerFromString("w"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*Result, int64) {
		t.Helper()
		reg := obs.NewRegistry()
		crypto.Instrument(reg)
		defer crypto.Uninstrument()
		cfg := baseConfig(t, 0.2, 60)
		cfg.ReliableIndices = []uint32{12}
		cfg.Workers = workers
		res, err := Run(s, cfg, 1, testPayloads(12))
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot().Counters["crypto.hash_ops"]
	}
	base, baseOps := run(1)
	if base.TotalAuthenticated() == 0 {
		t.Fatal("nothing authenticated")
	}
	for _, workers := range []int{2, 8} {
		got, ops := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: result differs from workers=1", workers)
		}
		if ops != baseOps {
			t.Errorf("workers=%d: crypto.hash_ops = %d, workers=1 counted %d", workers, ops, baseOps)
		}
	}
	var bare int64
	withoutDigestMemo(func() { _, bare = run(1) })
	if baseOps*4 > bare {
		t.Errorf("crypto.hash_ops = %d with the memo, %d without: want at least 4x fewer", baseOps, bare)
	}
}
