package stream

import (
	"fmt"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/packet"
	"mcauth/internal/scheme/signeach"
)

func TestPushDeferredSplitsHeldPackets(t *testing.T) {
	s := emssScheme(t, 4) // chained: implements DeferredAuthenticator
	snd, err := NewSender(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var db *DeferredBlock
	for i := 0; i < 4; i++ {
		got, err := snd.PushDeferredAt([]byte(fmt.Sprintf("m%d", i)), time.Unix(int64(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 && got != nil {
			t.Fatalf("block emitted after %d pushes", i+1)
		}
		db = got
	}
	if db == nil {
		t.Fatal("full block not emitted")
	}
	if db.Root == nil {
		t.Fatal("chained scheme should defer its root")
	}
	if len(db.Held) == 0 || len(db.Immediate)+len(db.Held) != s.WireCount() {
		t.Fatalf("split %d immediate + %d held, want %d total with held root",
			len(db.Immediate), len(db.Held), s.WireCount())
	}
	for _, p := range db.Held {
		if len(p.Signature) != 0 {
			t.Fatal("held packet already signed")
		}
	}
	if snd.NextBlockID() != 1 {
		t.Fatalf("block ID %d, want 1", snd.NextBlockID())
	}

	// Attach, then verify the whole wire set round-trips.
	signer := crypto.NewSignerFromString("stream")
	db.Root.Attach(signer.Sign(db.Root.Content))
	rcv, err := NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	auths := 0
	for _, p := range append(append([]*packet.Packet{}, db.Immediate...), db.Held...) {
		got, err := rcv.Ingest(p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		auths += len(got)
	}
	if auths != 4 {
		t.Fatalf("authenticated %d of 4", auths)
	}
}

func TestPushDeferredFallbackForSynchronousSchemes(t *testing.T) {
	s, err := signeach.New(3, crypto.NewSignerFromString("stream"))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var db *DeferredBlock
	for i := 0; i < 3; i++ {
		if db, err = snd.PushDeferredAt([]byte("m"), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if db == nil {
		t.Fatal("block not emitted")
	}
	if db.Root != nil || len(db.Held) != 0 {
		t.Fatal("sign-each cannot defer; block must come back fully signed")
	}
	if len(db.Immediate) != s.WireCount() {
		t.Fatalf("immediate %d, want %d", len(db.Immediate), s.WireCount())
	}
	for _, p := range db.Immediate {
		if len(p.Signature) == 0 {
			t.Fatal("fallback packet unsigned")
		}
	}
}

func TestFlushDeferredPads(t *testing.T) {
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db, err := snd.FlushDeferred(); err != nil || db != nil {
		t.Fatalf("idle flush = %v, %v", db, err)
	}
	if _, err := snd.PushDeferredAt([]byte("only"), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	db, err := snd.FlushDeferred()
	if err != nil {
		t.Fatal(err)
	}
	if db == nil || len(db.Immediate)+len(db.Held) != s.WireCount() {
		t.Fatalf("padded flush incomplete: %+v", db)
	}
	if snd.Pending() != 0 {
		t.Fatalf("pending %d after flush", snd.Pending())
	}
}

func TestFlushDeadlineDue(t *testing.T) {
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(100, 0)
	// No deadline configured: never due.
	if _, err := snd.PushDeferredAt([]byte("m"), t0); err != nil {
		t.Fatal(err)
	}
	if snd.Due(t0.Add(time.Hour)) {
		t.Fatal("due without a configured deadline")
	}
	snd.SetFlushAfter(50 * time.Millisecond)
	if snd.Due(t0.Add(20 * time.Millisecond)) {
		t.Fatal("due before the deadline")
	}
	if !snd.Due(t0.Add(60 * time.Millisecond)) {
		t.Fatal("not due after the deadline")
	}
	// The deadline clock tracks the block's FIRST message.
	if _, err := snd.PushDeferredAt([]byte("m2"), t0.Add(55*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !snd.Due(t0.Add(60 * time.Millisecond)) {
		t.Fatal("second push must not reset the deadline clock")
	}
	// Emitting the block resets it.
	if _, err := snd.FlushDeferred(); err != nil {
		t.Fatal(err)
	}
	if snd.Due(t0.Add(time.Hour)) {
		t.Fatal("due with nothing pending")
	}
	// Negative deadlines are clamped off.
	snd.SetFlushAfter(-time.Second)
	if _, err := snd.PushDeferredAt([]byte("m"), t0); err != nil {
		t.Fatal(err)
	}
	if snd.Due(t0.Add(time.Hour)) {
		t.Fatal("negative deadline should disable Due")
	}
}
