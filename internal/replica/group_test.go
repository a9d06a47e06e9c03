package replica

import (
	"fmt"
	"math/rand"
	"testing"

	"wren/internal/sharding"
	"wren/internal/wire"
)

// TestGroupByPartition checks the commit path's write-set split: every
// write lands in its owning partition's cohort exactly once, in write-set
// order, cohorts come in partition order, and each cohort's slice is capped
// at its length so an append cannot overwrite a neighbour's writes.
func TestGroupByPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		parts := 1 + rng.Intn(80) // past the 64-entry stack scratch too
		writes := make([]wire.KV, rng.Intn(40))
		for i := range writes {
			writes[i] = wire.KV{Key: fmt.Sprintf("k%d", rng.Intn(1000)), Value: []byte{byte(i)}}
		}
		cohorts := groupByPartition(writes, parts)

		want := make(map[int][]wire.KV)
		for _, kv := range writes {
			p := sharding.PartitionOf(kv.Key, parts)
			want[p] = append(want[p], kv)
		}
		if len(cohorts) != len(want) {
			t.Fatalf("trial %d: %d cohorts, want %d", trial, len(cohorts), len(want))
		}
		for i, c := range cohorts {
			if i > 0 && c.partition <= cohorts[i-1].partition {
				t.Fatalf("trial %d: cohorts out of partition order", trial)
			}
			if cap(c.writes) != len(c.writes) {
				t.Fatalf("trial %d: partition %d has cap %d > len %d", trial, c.partition, cap(c.writes), len(c.writes))
			}
			w := want[c.partition]
			if len(w) != len(c.writes) {
				t.Fatalf("trial %d: partition %d has %d writes, want %d", trial, c.partition, len(c.writes), len(w))
			}
			for j := range w {
				if c.writes[j].Key != w[j].Key || c.writes[j].Value[0] != w[j].Value[0] {
					t.Fatalf("trial %d: partition %d write %d = %v, want %v", trial, c.partition, j, c.writes[j], w[j])
				}
			}
		}
	}
}

// TestGroupByPartitionAllocs pins the split at two allocations — the
// cohort list and one backing array for every cohort's writes — however
// many partitions the write set touches. Grouping into a map of growing
// slices cost an allocation per append doubling per partition, plus the
// map's.
func TestGroupByPartitionAllocs(t *testing.T) {
	const parts = 8
	for _, touched := range []int{1, 2, 4, parts} {
		// Ten writes to each of the first `touched` partitions.
		var writes []wire.KV
		count := make([]int, parts)
		for i := 0; len(writes) < 10*touched; i++ {
			k := fmt.Sprintf("user%08d", i)
			if p := sharding.PartitionOf(k, parts); p < touched && count[p] < 10 {
				count[p]++
				writes = append(writes, wire.KV{Key: k, Value: []byte("v")})
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if got := groupByPartition(writes, parts); len(got) != touched {
				t.Fatalf("%d cohorts, want %d", len(got), touched)
			}
		})
		if allocs != 2 {
			t.Fatalf("grouping writes over %d partitions allocates %.0f times, want 2", touched, allocs)
		}
	}
}
