package transport

import (
	"bytes"
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"mcauth/internal/fault"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

func TestNACKCodec(t *testing.T) {
	b := EncodeNACK(77, 3)
	blockID, index, ok := DecodeNACK(b)
	if !ok || blockID != 77 || index != 3 {
		t.Fatalf("roundtrip got (%d,%d,%v)", blockID, index, ok)
	}
	for _, bad := range [][]byte{
		nil,
		{},
		[]byte("MCNK"),
		bytes.Repeat([]byte{0}, nackSize),
		append([]byte("XXXX"), b[4:]...),
		append(b, 0),
	} {
		if _, _, ok := DecodeNACK(bad); ok {
			t.Errorf("decoded %q as a NACK", bad)
		}
	}
}

func TestRepairStoreBoundedAndServes(t *testing.T) {
	pkts, _ := testBlockPackets(t, 6, 1)
	rs, err := NewRepairStore(3)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		rs.Put(id, pkts)
	}
	if got := rs.Blocks(); got != 3 {
		t.Fatalf("store holds %d blocks, want 3", got)
	}
	if rs.Packets(1, NACKSigRequest) != nil {
		t.Fatal("evicted block still answers")
	}
	sigs := rs.Packets(5, NACKSigRequest)
	if len(sigs) == 0 {
		t.Fatal("no signature packets served")
	}
	for _, p := range sigs {
		if len(p.Signature) == 0 {
			t.Fatalf("index %d served for a signature request but carries none", p.Index)
		}
	}
	one := rs.Packets(5, 2)
	if len(one) != 1 || one[0].Index != 2 {
		t.Fatalf("specific-index request got %v", one)
	}
	if got := rs.Packets(5, 9999); got != nil {
		t.Fatalf("unknown index served %v", got)
	}
}

// TestNACKRecoversDroppedSignature is the end-to-end repair path: the
// signature packet is dropped on the way out, every receiver-side packet
// starves in the buffer, the listener NACKs the block, and the sender's
// responder re-sends the signature — after which the whole block
// authenticates.
func TestNACKRecoversDroppedSignature(t *testing.T) {
	const n = 6
	pkts, rcv := testBlockPackets(t, n, 1)
	sendConn, recvConn := udpPair(t)
	defer sendConn.Close()

	store, err := NewRepairStore(8)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(1, pkts)
	responder, err := ServeRepairs(sendConn, store)
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Close()

	l, err := Listen(recvConn, rcv, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	go func() {
		count := 0
		for range l.Events() {
			count++
			if count == n {
				break
			}
		}
		got <- count
	}()
	if err := l.EnableNACK(NACKConfig{
		Sender:   sendConn.LocalAddr(),
		Interval: 5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	ds, err := NewDatagramSender(sendConn, recvConn.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, p := range pkts {
		if len(p.Signature) > 0 {
			dropped++
			continue // the "lost" signature
		}
		if err := ds.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if dropped == 0 {
		t.Fatal("test block has no signature packet to drop")
	}
	select {
	case count := <-got:
		if count != n {
			t.Fatalf("authenticated %d of %d messages", count, n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("block never authenticated: NACK recovery did not happen")
	}
	// Both counters are bumped just after the socket write that caused the
	// recovery, so the block can authenticate a moment before they move.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && (l.NACKsSent() == 0 || responder.Served() == 0) {
		time.Sleep(time.Millisecond)
	}
	if l.NACKsSent() == 0 {
		t.Error("listener reports no NACKs sent")
	}
	if responder.Served() == 0 {
		t.Error("responder reports no repairs served")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNACKGivesUpAfterMaxAttempts: with nobody answering, the re-request
// schedule must stop at the cap rather than NACK forever.
func TestNACKGivesUpAfterMaxAttempts(t *testing.T) {
	const maxAttempts = 3
	pkts, rcv := testBlockPackets(t, 6, 1)
	deadConn, recvConn := udpPair(t)
	defer deadConn.Close() // nobody reads it: NACKs land in the void

	l, err := Listen(recvConn, rcv, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range l.Events() {
		}
	}()
	if err := l.EnableNACK(NACKConfig{
		Sender:      deadConn.LocalAddr(),
		Interval:    2 * time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		MaxAttempts: maxAttempts,
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.EnableNACK(NACKConfig{Sender: deadConn.LocalAddr()}); err == nil {
		t.Fatal("second EnableNACK should fail")
	}
	ds, err := NewDatagramSender(deadConn, recvConn.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if len(p.Signature) > 0 {
			continue
		}
		if err := ds.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if l.NACKsSent() >= maxAttempts {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Let several more polling intervals elapse; the count must not grow.
	time.Sleep(50 * time.Millisecond)
	if got := l.NACKsSent(); got != maxAttempts {
		t.Fatalf("sent %d NACKs, want exactly %d", got, maxAttempts)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestListenerSurvivesAdversarialIngest floods the listener with garbage,
// truncations and wrong-key forgeries; the read loop must keep running and
// the genuine block must still authenticate afterwards.
func TestListenerSurvivesAdversarialIngest(t *testing.T) {
	const n = 6
	pkts, rcv := testBlockPackets(t, n, 1)
	sendConn, recvConn := udpPair(t)
	defer sendConn.Close()

	l, err := Listen(recvConn, rcv, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	go func() {
		count := 0
		for range l.Events() {
			count++
			if count == n {
				break
			}
		}
		got <- count
	}()
	target := recvConn.LocalAddr()
	// Garbage that does not decode, truncated genuine packets, and
	// well-formed forgeries signed with the wrong key.
	hostile := [][]byte{
		[]byte("not a packet at all"),
		{0xff, 0xff, 0xff, 0xff},
		EncodeNACK(1, 0), // NACKs are sender-side traffic; noise here
	}
	wire, err := pkts[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	hostile = append(hostile, wire[:len(wire)/2])
	forged := fault.ForgedPayload(42)
	fp := &packet.Packet{BlockID: 1, Index: 2, Payload: forged, Signature: []byte("bogus")}
	fw, err := fp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	hostile = append(hostile, fw)
	for i := 0; i < 10; i++ {
		for _, h := range hostile {
			if _, err := sendConn.WriteTo(h, target); err != nil {
				t.Fatal(err)
			}
		}
	}
	ds, err := NewDatagramSender(sendConn, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SendBlock(pkts, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case count := <-got:
		if count != n {
			t.Fatalf("authenticated %d of %d messages", count, n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("genuine block never authenticated under hostile traffic")
	}
	totals := l.Totals()
	if totals.DecodeErrors == 0 {
		t.Error("no decode errors counted for garbage datagrams")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("listener loop died on hostile traffic: %v", err)
	}
}

// flakyConn fails WriteTo with a scripted error sequence, then succeeds.
type flakyConn struct {
	net.PacketConn
	errs  []error
	calls int
}

func (f *flakyConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	f.calls++
	if len(f.errs) > 0 {
		err := f.errs[0]
		f.errs = f.errs[1:]
		if err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

func TestSendWithRetry(t *testing.T) {
	conn, other := udpPair(t)
	defer conn.Close()
	defer other.Close()
	p := &packet.Packet{BlockID: 1, Index: 1, Payload: []byte("x")}

	flaky := &flakyConn{PacketConn: conn, errs: []error{syscall.ENOBUFS, syscall.EAGAIN}}
	ds, err := NewDatagramSender(flaky, other.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SendWithRetry(p, 5, time.Millisecond); err != nil {
		t.Fatalf("transient errors should be retried away: %v", err)
	}
	if flaky.calls != 3 {
		t.Fatalf("took %d sends, want 3 (two transient failures then success)", flaky.calls)
	}

	perm := &flakyConn{PacketConn: conn, errs: []error{errors.New("wire cut"), nil, nil}}
	ds2, err := NewDatagramSender(perm, other.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.SendWithRetry(p, 5, time.Millisecond); err == nil {
		t.Fatal("permanent error should fail immediately")
	}
	if perm.calls != 1 {
		t.Fatalf("permanent error retried %d times", perm.calls)
	}

	exhaust := &flakyConn{PacketConn: conn, errs: []error{
		syscall.ENOBUFS, syscall.ENOBUFS, syscall.ENOBUFS, syscall.ENOBUFS,
	}}
	ds3, err := NewDatagramSender(exhaust, other.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds3.SendWithRetry(p, 3, time.Millisecond); err == nil {
		t.Fatal("exhausted attempts should report failure")
	}
	if exhaust.calls != 3 {
		t.Fatalf("attempt cap not honored: %d sends", exhaust.calls)
	}
}

func TestIsTransientSendErr(t *testing.T) {
	transient := []error{syscall.ENOBUFS, syscall.EAGAIN, syscall.EINTR, syscall.ECONNREFUSED}
	for _, err := range transient {
		if !IsTransientSendErr(err) {
			t.Errorf("%v should be transient", err)
		}
	}
	for _, err := range []error{nil, errors.New("boom"), syscall.EPERM} {
		if IsTransientSendErr(err) {
			t.Errorf("%v should not be transient", err)
		}
	}
}

// captureConn records every datagram written.
type captureConn struct {
	net.PacketConn
	wires [][]byte
}

func (c *captureConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.wires = append(c.wires, append([]byte(nil), b...))
	return len(b), nil
}

// TestDatagramSenderFaultHook: the chaos hook mutates/duplicates outgoing
// datagrams deterministically and can be switched off again.
func TestDatagramSenderFaultHook(t *testing.T) {
	conn, other := udpPair(t)
	defer conn.Close()
	defer other.Close()
	cc := &captureConn{PacketConn: conn}
	ds, err := NewDatagramSender(cc, other.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{BlockID: 3, Index: 1, Payload: []byte("payload")}
	want, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}

	if err := ds.SetFaults(&fault.Config{DuplicateRate: 1}, 7); err != nil {
		t.Fatal(err)
	}
	if err := ds.Send(p); err != nil {
		t.Fatal(err)
	}
	if len(cc.wires) != 2 {
		t.Fatalf("duplication hook wrote %d datagrams, want 2", len(cc.wires))
	}
	if !bytes.Equal(cc.wires[0], want) || !bytes.Equal(cc.wires[1], want) {
		t.Fatal("duplicates should be byte-identical to the original")
	}

	cc.wires = nil
	if err := ds.SetFaults(&fault.Config{CorruptRate: 1}, 7); err != nil {
		t.Fatal(err)
	}
	if err := ds.Send(p); err != nil {
		t.Fatal(err)
	}
	if len(cc.wires) != 1 || bytes.Equal(cc.wires[0], want) {
		t.Fatal("corruption hook should mutate the datagram")
	}

	cc.wires = nil
	if err := ds.SetFaults(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := ds.Send(p); err != nil {
		t.Fatal(err)
	}
	if len(cc.wires) != 1 || !bytes.Equal(cc.wires[0], want) {
		t.Fatal("disabled hook should restore plain sends")
	}
}

// TestRecoveryMetricsCounters: the recovery machinery reports its work to
// the registry — send retries, NACKs sent, repairs served — and the
// counters appear only once the path is actually exercised.
func TestRecoveryMetricsCounters(t *testing.T) {
	conn, other := udpPair(t)
	defer conn.Close()
	defer other.Close()
	reg := obs.NewRegistry()

	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("UDP unavailable in this environment: %v", err)
	}
	defer sink.Close()
	flaky := &flakyConn{PacketConn: conn, errs: []error{syscall.ENOBUFS, syscall.ENOBUFS}}
	ds, err := NewDatagramSender(flaky, sink.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	ds.SetMetrics(reg)
	if _, ok := reg.Snapshot().Counters["transport.send_retries"]; ok {
		t.Error("send_retries registered before any retry happened")
	}
	p := &packet.Packet{BlockID: 1, Index: 1, Payload: []byte("x")}
	if err := ds.SendWithRetry(p, 5, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["transport.send_retries"]; got != 2 {
		t.Errorf("transport.send_retries = %d, want 2", got)
	}

	// Repairs served: responder answers one NACK from the store.
	const n = 6
	pkts, rcv := testBlockPackets(t, n, 1)
	store, err := NewRepairStore(4)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(1, pkts)
	responder, err := ServeRepairs(conn, store)
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Close()
	responder.SetMetrics(reg)

	l, err := Listen(other, rcv, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetMetrics(reg)
	go func() {
		for range l.Events() {
		}
	}()
	if err := l.EnableNACK(NACKConfig{
		Sender:   conn.LocalAddr(),
		Interval: 5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := NewDatagramSender(conn, other.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range pkts {
		if len(pk.Signature) > 0 {
			continue // drop the signature so the block starves
		}
		if err := data.Send(pk); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for responder.Served() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	snap := reg.Snapshot()
	if snap.Counters["transport.nacks_sent"] == 0 {
		t.Error("transport.nacks_sent not counted")
	}
	if snap.Counters["transport.repairs_served"] == 0 {
		t.Error("transport.repairs_served not counted")
	}
}
