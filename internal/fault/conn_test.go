package fault

import (
	"errors"
	"net"
	"testing"
	"time"
)

func TestConnFaultConfigValidate(t *testing.T) {
	for _, cfg := range []ConnFaultConfig{
		{ResetRate: -0.1},
		{ResetRate: 1.5},
		{PartialWriteRate: 2},
		{ReadStallRate: -1},
		{StallDelay: -time.Second},
	} {
		if err := cfg.validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
		if _, err := NewConnFaults(cfg); err == nil {
			t.Errorf("NewConnFaults accepted %+v", cfg)
		}
	}
	if (ConnFaultConfig{}).enabled() {
		t.Error("zero config reports Enabled")
	}
	if !(ConnFaultConfig{ResetRate: 0.1}).enabled() {
		t.Error("reset-only config reports disabled")
	}
}

func TestConnFaultsWrapPassthroughWhenDisabled(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()

	var nilCF *ConnFaults
	if got := nilCF.Wrap(c1); got != c1 {
		t.Error("nil ConnFaults wrapped the conn")
	}
	cf, err := NewConnFaults(ConnFaultConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := cf.Wrap(c1); got != c1 {
		t.Error("disabled ConnFaults wrapped the conn")
	}
}

// TestConnFaultsInjectsResetsAndTears drives enough writes through a
// wrapped pipe that both write-side faults fire, and checks every injected
// failure is visible to the caller: a counted error with either a strict
// prefix delivered (torn) or a closed conn (reset).
func TestConnFaultsInjectsResetsAndTears(t *testing.T) {
	cf, err := NewConnFaults(ConnFaultConfig{Seed: 7, ResetRate: 0.2, PartialWriteRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	var clean, torn int
	for i := 0; i < 200; i++ {
		c1, c2 := net.Pipe()
		w := cf.Wrap(c1)
		if w == c1 {
			t.Fatal("enabled ConnFaults did not wrap")
		}
		// Drain the peer so pipe writes complete.
		drained := make(chan int, 1)
		go func() {
			total := 0
			tmp := make([]byte, len(buf))
			for {
				n, err := c2.Read(tmp)
				total += n
				if err != nil {
					drained <- total
					return
				}
			}
		}()
		n, werr := w.Write(buf)
		c1.Close()
		got := <-drained
		c2.Close()
		switch {
		case werr == nil:
			clean++
			if n != len(buf) || got != len(buf) {
				t.Fatalf("clean write delivered %d/%d bytes", got, len(buf))
			}
		case errors.Is(werr, net.ErrClosed):
			// Injected reset: whatever prefix was reported is what landed.
			if n >= len(buf) && got >= len(buf) {
				t.Fatalf("reset delivered the whole buffer (%d bytes)", got)
			}
		default:
			torn++
			if n <= 0 || n >= len(buf) || got != n {
				t.Fatalf("torn write reported %d bytes, peer saw %d (buffer %d)", n, got, len(buf))
			}
		}
	}
	if cf.Resets() == 0 || cf.PartialWrites() == 0 {
		t.Fatalf("after 200 writes at rate 0.2: %d resets, %d torn — injection never fired",
			cf.Resets(), cf.PartialWrites())
	}
	if int64(torn) != cf.PartialWrites() {
		t.Errorf("torn-write counter %d != observed torn errors %d", cf.PartialWrites(), torn)
	}
	if clean == 0 {
		t.Error("every write faulted at rate 0.2 — RNG looks broken")
	}
}

func TestConnFaultsReadStall(t *testing.T) {
	const delay = 30 * time.Millisecond
	cf, err := NewConnFaults(ConnFaultConfig{Seed: 3, ReadStallRate: 1, StallDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	defer c2.Close()
	w := cf.Wrap(c1)
	defer w.Close()
	go c2.Write([]byte("hello"))

	start := time.Now()
	buf := make([]byte, 8)
	n, err := w.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("stalled read failed: n=%d err=%v", n, err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("read returned after %v, want >= %v stall", elapsed, delay)
	}
	if cf.Stalls() == 0 {
		t.Error("stall counter never incremented")
	}
}

// TestConnFaultsDeterministic checks that two injectors with the same seed
// make the same fault decisions — the property that lets a chaos run be
// replayed.
func TestConnFaultsDeterministic(t *testing.T) {
	decisions := func(seed uint64) []bool {
		cf, err := NewConnFaults(ConnFaultConfig{Seed: seed, ResetRate: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = cf.bernoulli(cf.cfg.ResetRate)
		}
		return out
	}
	a, b := decisions(11), decisions(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between same-seed injectors", i)
		}
	}
}
