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
	if rs.Has(1, 1) || len(rs.Since(1)) != 3*len(pkts) {
		t.Fatal("evicted block still retained")
	}
	for _, p := range pkts {
		if !rs.Has(5, p.Index) {
			t.Fatalf("block 5 lost index %d", p.Index)
		}
	}
	if rs.Has(5, 9999) {
		t.Fatal("unknown index reported retained")
	}
}
