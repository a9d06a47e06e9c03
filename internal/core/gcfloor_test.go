package core

import (
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/store"
	"wren/internal/transport"
)

// TestGCFloorKeepsRemoteVersionsOfLiveSnapshots checks that version GC
// never prunes a remote version a live snapshot still reads. A remote
// version is visible only up to the snapshot's remote time rt, which
// trails its local time lt; a floor at lt would make the version at UT 200
// the chain's base and prune the one at UT 100 that a snapshot with
// rt = 150 reads.
func TestGCFloorKeepsRemoteVersionsOfLiveSnapshots(t *testing.T) {
	cases := []struct {
		name     string
		lst, rst hlc.Timestamp
		ctx      *txContext // a live transaction context, if any
	}{
		// The snapshot is held by a running transaction while the stable
		// times have moved on past the version at UT 200.
		{name: "live context", lst: 400, rst: 350, ctx: &txContext{lt: 300, rt: 150}},
		// No transaction is running: the snapshot a transaction started
		// now would get is (lst, min(rst, lst-1)) = (300, 150).
		{name: "idle", lst: 300, rst: 150},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMemory(nil)
			defer net.Close()
			s, err := NewServer(ServerConfig{
				DC: 1, Partition: 0, NumDCs: 2, NumPartitions: 1, Network: net,
				GCInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.st.Close()
			for _, ut := range []hlc.Timestamp{100, 200} {
				s.st.Put("k", &store.Version{Value: []byte{byte(ut)}, UT: ut, TxID: uint64(ut), SrcDC: 0})
			}
			s.lst.Advance(tc.lst)
			s.rst.Advance(tc.rst)
			lt, rt := tc.lst, hlc.Min(tc.rst, tc.lst.Prev())
			if tc.ctx != nil {
				tc.ctx.created = time.Now()
				s.txCtx.Store(1, *tc.ctx)
				lt, rt = tc.ctx.lt, tc.ctx.rt
			}

			floor := (*wrenProtocol)(s).OldestActiveSnapshot(time.Now())
			s.st.GC(floor)

			items := s.readSlice([]string{"k"}, lt, rt, nil)
			if len(items) != 1 || items[0].UT != 100 {
				t.Fatalf("snapshot (lt %v, rt %v) read %+v after GC at floor %v; want the version at UT 100",
					lt, rt, items, floor)
			}
		})
	}
}
