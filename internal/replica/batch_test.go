package replica

import (
	"math/rand"
	"testing"

	"wren/internal/hlc"
	"wren/internal/txlog"
)

// TestBatchLenCutsOnlyBetweenTimestampGroups splits random
// commit-timestamp-ordered runs with many equal-timestamp groups: no cut
// may separate two transactions with the same timestamp, every batch but
// the last reaches the limit, and a batch exceeds it only by the rest of
// the group it ends in.
func TestBatchLenCutsOnlyBetweenTimestampGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		limit := 1 + rng.Intn(20)
		txs := make([]*txlog.CommittedTx, rng.Intn(200))
		ct := hlc.Timestamp(1)
		for i := range txs {
			if rng.Intn(3) == 0 {
				ct += hlc.Timestamp(1 + rng.Intn(3))
			}
			txs[i] = &txlog.CommittedTx{TxID: uint64(i), CT: ct}
		}
		for rest := txs; len(rest) > 0; {
			n := batchLen(rest, limit)
			if n < 1 || n > len(rest) {
				t.Fatalf("trial %d: batchLen = %d of %d remaining", trial, n, len(rest))
			}
			if n < len(rest) {
				if rest[n].CT == rest[n-1].CT {
					t.Fatalf("trial %d: cut splits the group at ct %v", trial, rest[n].CT)
				}
				if n < limit {
					t.Fatalf("trial %d: batch of %d cut below the limit %d", trial, n, limit)
				}
			}
			if n > limit && rest[limit-1].CT != rest[n-1].CT {
				t.Fatalf("trial %d: batch of %d overruns the limit %d past its group", trial, n, limit)
			}
			rest = rest[n:]
		}
	}
}
