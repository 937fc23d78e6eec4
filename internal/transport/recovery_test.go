package transport

import "testing"

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
