// Chaos self-test: the serving tier's failure model, exercised end to end
// in one process. A Daemon (server + TCP listener + publishers) is killed
// and restarted for Cycles rounds against one persistent reconnecting
// receiver, while connection-level faults (resets mid-frame, torn writes,
// stalled reads) hit both sides of every subscriber conn. The kill is
// server.Kill — the in-process equivalent of SIGKILL: partial blocks and
// unsigned batch roots die, only the write-ahead checkpoint survives.
//
// The receiver cross-checks every authenticated message against the
// publishers' deterministic payload format and against everything
// previously authenticated under the same (stream, block, index)
// identity. Because restarted streams resume past their reserved
// watermark, a conflict can only mean a forged authentication or a forked
// block — either fails the run. At the end the harness asserts the run
// actually proved something: resets and reconnects happened, session
// resume replayed catch-up packets, and at least MinAuth of the
// published messages authenticated despite the kills.
package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mcauth/internal/fault"
	"mcauth/internal/obs"
	"mcauth/internal/stream"
)

// ChaosConfig carries the chaos flags.
type ChaosConfig struct {
	// Cycles daemon incarnations each serve KillAfter before being killed
	// (the last one closes gracefully).
	Cycles    int
	KillAfter time.Duration
	// ConnReset is the per-write probability a subscriber conn resets
	// mid-frame (torn writes at half that), ConnStall the per-read
	// probability the receiver stalls, Seed the fault RNG seed.
	ConnReset, ConnStall float64
	Seed                 uint64
	MinAuth              float64 // fraction of published that must authenticate
}

// chaosVerifier vets authenticated messages. Single-goroutine (the
// verifying sink calls it inline).
type chaosVerifier struct {
	// seen maps "stream/block/index" to the authenticated payload; a
	// second authentication under the same identity must match bit for
	// bit, or some incarnation of the daemon forked a block.
	seen   map[string]string
	forged int
}

func (cv *chaosVerifier) check(streamID uint64, a stream.Authenticated) error {
	if len(a.Payload) > 0 && !strings.HasPrefix(string(a.Payload), fmt.Sprintf("stream-%d msg-", streamID)) {
		cv.forged++
		return fmt.Errorf("chaos: forged authentication on stream %d block %d index %d: %q",
			streamID, a.BlockID, a.Index, a.Payload)
	}
	key := fmt.Sprintf("%d/%d/%d", streamID, a.BlockID, a.Index)
	if prev, ok := cv.seen[key]; ok {
		if prev != string(a.Payload) {
			cv.forged++
			return fmt.Errorf("chaos: block fork: stream %d block %d index %d authenticated as both %q and %q",
				streamID, a.BlockID, a.Index, prev, a.Payload)
		}
		return nil
	}
	cv.seen[key] = string(a.Payload)
	return nil
}

// Chaos runs the soak and prints its summary; reg must be non-nil (the
// assertions read server.* counters, shared across daemon incarnations so
// they accumulate over the whole soak).
func (c Config) Chaos(cc ChaosConfig, reg *obs.Registry, tel *Telemetry, stdout io.Writer) error {
	if c.Repair <= 0 {
		return fmt.Errorf("chaos needs -repair > 0 (session resume replays from repair retention)")
	}
	if c.Checkpoint == "" {
		dir, err := os.MkdirTemp("", "mcserved-chaos-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		c.Checkpoint = filepath.Join(dir, "checkpoint.json")
	}

	// Server-side faults tear subscriber conns (reset mid-frame, partial
	// write); client-side faults stall the receiver's reads so server-side
	// write deadlines and priority shedding engage.
	srvFaults, err := fault.NewConnFaults(fault.ConnFaultConfig{
		Seed:             cc.Seed,
		ResetRate:        cc.ConnReset,
		PartialWriteRate: cc.ConnReset / 2,
	})
	if err != nil {
		return err
	}
	rcvFaults, err := fault.NewConnFaults(fault.ConnFaultConfig{
		Seed:          cc.Seed + 1,
		ReadStallRate: cc.ConnStall,
		StallDelay:    20 * time.Millisecond,
	})
	if err != nil {
		return err
	}

	// One listener address for the whole soak: bind once to grab a free
	// port, then re-listen on it after every kill.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()

	// The receiver session persists across every daemon incarnation:
	// unlimited redials, and verification state that carries resume
	// cursors over the kills.
	cv := &chaosVerifier{seen: make(map[string]string)}
	sink, err := c.NewVerifySink(64, reg, tel)
	if err != nil {
		ln.Close()
		return err
	}
	sink.OnAuth = cv.check
	rc := c
	rc.Reconnect, rc.ReconnectBackoff = -1, 10*time.Millisecond
	sess := rc.Session(addr, sink, reg, reg.Counter("server.reconnects"))
	sess.Wrap = rcvFaults.Wrap
	ctx, stopRecv := context.WithCancel(context.Background())
	recvDone := make(chan error, 1)
	go func() { recvDone <- sess.Run(ctx) }()
	// stopReceiver joins the receiver; its own failure surfaces unless the
	// caller is already failing with err.
	stopReceiver := func(err error) error {
		stopRecv()
		if recvErr := <-recvDone; err == nil {
			return recvErr
		}
		return err
	}

	kills := 0
	for cycle := 0; cycle < cc.Cycles; cycle++ {
		if cycle > 0 {
			tel.NoteFault("restart", fmt.Sprintf("cycle %d: daemon restarted from checkpoint", cycle))
			if ln, err = net.Listen("tcp", addr); err != nil {
				return stopReceiver(fmt.Errorf("chaos: re-listen cycle %d: %w", cycle, err))
			}
		}
		d, err := c.StartDaemon(ln, reg, tel, srvFaults.Wrap)
		if err != nil {
			ln.Close()
			return stopReceiver(err)
		}
		time.Sleep(cc.KillAfter)
		// The final incarnation shuts down gracefully: drain, sign the last
		// batch, record a clean checkpoint. The others die like SIGKILL.
		kill := cycle < cc.Cycles-1
		if err := d.Stop(kill); err != nil {
			return stopReceiver(err)
		}
		if kill {
			kills++
			tel.NoteFault("kill", fmt.Sprintf("cycle %d: server killed (SIGKILL-equivalent)", cycle))
		}
	}
	// Let the receiver drain what the final graceful close put on the wire
	// before stopping it.
	time.Sleep(200 * time.Millisecond)
	recvErr := stopReceiver(nil)
	// The soak's post-mortem: the fault timeline carries every kill and
	// restart, and the span ring holds the freshest block lifecycles from
	// both halves of the pipeline (sender and receiver share one process).
	tel.Dump("chaos_kill")
	if recvErr != nil {
		return recvErr
	}

	published := reg.Counter("server.published").Value()
	catchup := reg.Counter("server.resume_catchup_packets").Value()
	reconnects := reg.Counter("server.reconnects").Value()
	frac := float64(sink.Authed) / float64(max(published, 1))
	fmt.Fprintf(stdout, "mcserved chaos: %d cycles (%d kills), %d published, %d authenticated (%.2f), %d padding\n",
		cc.Cycles, kills, published, sink.Authed, frac, sink.Padding)
	fmt.Fprintf(stdout, "  sessions %d, reconnects %d, catch-up packets %d\n", sess.Sessions, reconnects, catchup)
	fmt.Fprintf(stdout, "  injected: %d resets, %d torn writes, %d read stalls; shed %d data / %d sig\n",
		srvFaults.Resets(), srvFaults.PartialWrites(), rcvFaults.Stalls(),
		reg.Counter("server.shed_data").Value(), reg.Counter("server.shed_sig").Value())

	if cv.forged > 0 {
		return fmt.Errorf("chaos: %d forged authentications", cv.forged)
	}
	if reconnects < 1 {
		return fmt.Errorf("chaos: receiver never reconnected (%d sessions) — the soak proved nothing", sess.Sessions)
	}
	if catchup == 0 {
		return fmt.Errorf("chaos: no resume catch-up was replayed — session resume untested")
	}
	if srvFaults.Resets()+srvFaults.PartialWrites() == 0 && cc.ConnReset > 0 {
		return fmt.Errorf("chaos: no connection faults fired — raise -kill-after or -conn-reset")
	}
	if frac < cc.MinAuth {
		return fmt.Errorf("chaos: authenticated fraction %.3f below -min-auth %.3f", frac, cc.MinAuth)
	}
	return nil
}
