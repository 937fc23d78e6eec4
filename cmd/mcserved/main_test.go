package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcauth/internal/obs"
)

func TestDemoSustains64Streams(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-demo", "-streams", "64", "-blocks", "8",
		"-batch", "32", "-flush", "40ms", "-key", "test-demo",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "published        4096 messages") {
		t.Errorf("expected 4096 published (64 streams x 8 blocks x mean block 8):\n%s", s)
	}
	if !strings.Contains(s, "verified         4096 messages") {
		t.Errorf("loopback receiver did not verify everything:\n%s", s)
	}
	// The run must amortize: strictly more than 1 root per signature.
	if strings.Contains(s, "amortization 1.00x") || strings.Contains(s, "amortization 0.") {
		t.Errorf("no signature amortization:\n%s", s)
	}
	if !strings.Contains(s, "dropped          0") {
		t.Errorf("demo dropped packets:\n%s", s)
	}
}

func TestDemoMetricsTable(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-demo", "-streams", "4", "-blocks", "2", "-scheme", "emss",
		"-metrics", "-", "-key", "test-metrics",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, metric := range []string{"server.published", "server.batch_signed_roots", "server.root_hold_ns"} {
		if !strings.Contains(out.String(), metric) {
			t.Errorf("metrics table missing %s:\n%s", metric, out.String())
		}
	}
}

func TestDaemonServesReceiverOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	daemonOut := make(chan error, 1)
	var daemonBuf bytes.Buffer
	go func() {
		daemonOut <- run([]string{
			"-listen", addr, "-streams", "8", "-blocks", "4", "-scheme", "mixed",
			"-rate", "200us", "-duration", "2s", "-batch", "16", "-flush", "30ms",
			"-key", "test-tcp",
		}, &daemonBuf)
	}()

	// Wait for the daemon to accept connections.
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if conn == nil {
		t.Fatalf("daemon never came up: %v", err)
	}
	conn.Close()

	var recvBuf bytes.Buffer
	recvErr := run([]string{
		"-connect", addr, "-streams", "8", "-scheme", "mixed", "-key", "test-tcp",
		// One quick redial after the daemon exits keeps the test fast while
		// still exercising the reconnect path's give-up branch.
		"-reconnect", "1", "-reconnect-backoff", "10ms",
	}, &recvBuf)
	if recvErr != nil {
		t.Fatalf("receiver: %v\n%s", recvErr, recvBuf.String())
	}
	if err := <-daemonOut; err != nil {
		t.Fatalf("daemon: %v\n%s", err, daemonBuf.String())
	}
	s := recvBuf.String()
	var packets, authed, padding, streams int64
	if _, err := fmt.Sscanf(s, "mcserved receiver: %d packets, %d verified messages (+%d padding) across %d streams",
		&packets, &authed, &padding, &streams); err != nil {
		t.Fatalf("unparseable receiver summary %q: %v", s, err)
	}
	if authed == 0 {
		t.Fatalf("receiver verified nothing:\n%s\ndaemon:\n%s", s, daemonBuf.String())
	}
	if streams == 0 {
		t.Fatalf("receiver saw no streams:\n%s", s)
	}
}

// TestMetricsIntervalWritesJSONLSeries runs a demo with -metrics-interval
// and checks the metrics file is an append-only JSONL series of timestamped
// snapshots — monotone timestamps, counters never decreasing, and a final
// line carrying the end-of-run totals.
func TestMetricsIntervalWritesJSONLSeries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	var out bytes.Buffer
	err := run([]string{
		"-demo", "-streams", "8", "-blocks", "16", "-scheme", "emss",
		"-rate", "500us", // stretch the run so several ticks land
		"-metrics", path, "-metrics-interval", "20ms", "-key", "test-interval",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	series, skipped, err := obs.ReadSnapshotLines(f)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("%d undecodable lines in a cleanly closed series", skipped)
	}
	// At least one tick plus the final flush.
	if len(series) < 2 {
		t.Fatalf("series has %d snapshots, want >= 2 (ticks + final)", len(series))
	}
	var lastAt, lastPublished int64
	for i, ts := range series {
		if ts.AtUnixNS <= lastAt {
			t.Errorf("snapshot %d timestamp %d not increasing (prev %d)", i, ts.AtUnixNS, lastAt)
		}
		lastAt = ts.AtUnixNS
		pub := ts.Metrics.Counters["server.published"]
		if pub < lastPublished {
			t.Errorf("snapshot %d server.published went backwards: %d -> %d", i, lastPublished, pub)
		}
		lastPublished = pub
	}
	final := series[len(series)-1].Metrics
	if want := int64(8 * 16 * 8); final.Counters["server.published"] != want {
		t.Errorf("final published = %d, want %d", final.Counters["server.published"], want)
	}
	if final.Histograms["server.root_hold_ns"].Count == 0 {
		t.Error("final snapshot missing root-hold observations")
	}
}

func TestOptionValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{},
		{"-demo", "-listen", ":0"},
		{"-demo", "-streams", "0"},
		{"-demo", "-blocks", "0"},
		{"-demo", "-scheme", "nope"},
		{"-demo", "-metrics-interval", "1s"}, // needs -metrics FILE
		{"-demo", "-metrics", "-", "-metrics-interval", "1s"}, // stdout table can't carry a series
		{"-demo", "-metrics", "x", "-metrics-interval", "-1s"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestTESLAIsADocumentedExclusion: -scheme tesla is refused with the
// reason and the accepted names, not as an unknown scheme.
func TestTESLAIsADocumentedExclusion(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-demo", "-streams", "1", "-scheme", "tesla"}, &out)
	if err == nil {
		t.Fatal("-scheme tesla accepted")
	}
	for _, want := range []string{"no sender clock", "rohatgi|emss|augchain|authtree|signeach|mixed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
