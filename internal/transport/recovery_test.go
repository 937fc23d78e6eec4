package transport

import (
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"mcauth/internal/fault"
	"mcauth/internal/packet"
)

func TestRepairStoreBoundedAndServes(t *testing.T) {
	pkts, _ := testBlockPackets(t, 6, 1)
	rs, err := NewRepairStore(3)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		rs.Add(id, pkts)
	}
	if got := len(rs.blocks); got != 3 {
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
	for _, p := range pkts {
		if err := ds.send(p); err != nil {
			t.Fatal(err)
		}
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
