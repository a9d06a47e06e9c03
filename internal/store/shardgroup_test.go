package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// quadraticShardGroups is the straightforward grouping ForEachShardGroup
// must reproduce: rescan the batch once per touched shard, collecting that
// shard's members in batch order, shards in first-appearance order.
func quadraticShardGroups(mask uint32, kvs []KV, fn func(shard uint32, group []KV)) {
	done := make([]bool, len(kvs))
	for i := range kvs {
		if done[i] {
			continue
		}
		id := fnv1a(kvs[i].Key) & mask
		var group []KV
		for j := i; j < len(kvs); j++ {
			if !done[j] && fnv1a(kvs[j].Key)&mask == id {
				group = append(group, kvs[j])
				done[j] = true
			}
		}
		fn(id, group)
	}
}

type shardGroup struct {
	shard uint32
	kvs   []KV
}

func collectGroups(each func(uint32, []KV, func(uint32, []KV)), mask uint32, kvs []KV) []shardGroup {
	var got []shardGroup
	each(mask, kvs, func(id uint32, group []KV) {
		got = append(got, shardGroup{id, append([]KV(nil), group...)})
	})
	return got
}

func TestForEachShardGroupMatchesQuadraticGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		mask := uint32(1)<<rng.Intn(8) - 1
		kvs := make([]KV, rng.Intn(300))
		for i := range kvs {
			// Few distinct keys, so batches repeat keys and shards.
			kvs[i] = KV{Key: fmt.Sprintf("k%d", rng.Intn(50)), Version: &Version{TxID: uint64(i)}}
		}
		want := collectGroups(quadraticShardGroups, mask, kvs)
		got := collectGroups(ForEachShardGroup, mask, kvs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (mask %d, %d kvs): grouping differs\n got %v\nwant %v", trial, mask, len(kvs), got, want)
		}
	}
}

func TestForEachShardGroupAllocationFree(t *testing.T) {
	kvs := make([]KV, 512)
	for i := range kvs {
		kvs[i] = KV{Key: fmt.Sprintf("user%08d", i), Version: &Version{}}
	}
	var members int
	count := func(_ uint32, group []KV) { members += len(group) }
	ForEachShardGroup(DefaultShards-1, kvs, count) // grow the scratch
	if n := testing.AllocsPerRun(100, func() { ForEachShardGroup(DefaultShards-1, kvs, count) }); n != 0 {
		t.Fatalf("ForEachShardGroup allocates %.1f per call, want 0", n)
	}
	if members != 102*len(kvs) { // AllocsPerRun adds a warm-up call
		t.Fatalf("groups covered %d members, want %d", members, 102*len(kvs))
	}
}
