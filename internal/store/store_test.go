package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"wren/internal/hlc"
)

func ver(ut int64, src uint8, txid uint64, val string) *Version {
	return &Version{Value: []byte(val), UT: hlc.New(ut, 0), TxID: txid, SrcDC: src}
}

func all(*Version) bool { return true }

func TestPutAndReadVisible(t *testing.T) {
	s := New()
	s.Put("k", ver(10, 0, 1, "a"))
	s.Put("k", ver(20, 0, 2, "b"))
	got := s.ReadVisible("k", all)
	if got == nil || string(got.Value) != "b" {
		t.Fatalf("ReadVisible = %v, want b", got)
	}
}

func TestReadVisibleMissingKey(t *testing.T) {
	s := New()
	if got := s.ReadVisible("nope", all); got != nil {
		t.Errorf("missing key should return nil, got %v", got)
	}
}

func TestReadVisiblePredicate(t *testing.T) {
	s := New()
	s.Put("k", ver(10, 0, 1, "old"))
	s.Put("k", ver(20, 0, 2, "new"))
	upTo15 := func(v *Version) bool { return v.UT <= hlc.New(15, 0) }
	got := s.ReadVisible("k", upTo15)
	if got == nil || string(got.Value) != "old" {
		t.Fatalf("snapshot read = %v, want old", got)
	}
	before5 := func(v *Version) bool { return v.UT <= hlc.New(5, 0) }
	if got := s.ReadVisible("k", before5); got != nil {
		t.Errorf("nothing visible before 5, got %v", got)
	}
}

func TestOutOfOrderInsertKeepsLWWOrder(t *testing.T) {
	s := New()
	// Insert in scrambled timestamp order.
	s.Put("k", ver(30, 0, 3, "c"))
	s.Put("k", ver(10, 0, 1, "a"))
	s.Put("k", ver(20, 0, 2, "b"))
	if got := s.ReadVisible("k", all); string(got.Value) != "c" {
		t.Errorf("freshest = %s, want c", got.Value)
	}
	upTo25 := func(v *Version) bool { return v.UT <= hlc.New(25, 0) }
	if got := s.ReadVisible("k", upTo25); string(got.Value) != "b" {
		t.Errorf("snapshot(25) = %s, want b", got.Value)
	}
}

func TestLWWTieBreakBySourceDCAndTxID(t *testing.T) {
	s := New()
	// Same UT: concurrent conflicting writes from different DCs.
	s.Put("k", &Version{Value: []byte("dc0"), UT: hlc.New(10, 0), SrcDC: 0, TxID: 5})
	s.Put("k", &Version{Value: []byte("dc2"), UT: hlc.New(10, 0), SrcDC: 2, TxID: 1})
	s.Put("k", &Version{Value: []byte("dc1"), UT: hlc.New(10, 0), SrcDC: 1, TxID: 9})
	if got := s.ReadVisible("k", all); string(got.Value) != "dc2" {
		t.Errorf("LWW winner = %s, want dc2 (highest SrcDC)", got.Value)
	}
	// Same UT and DC: transaction id breaks the tie.
	s.Put("j", &Version{Value: []byte("tx1"), UT: hlc.New(10, 0), SrcDC: 0, TxID: 1})
	s.Put("j", &Version{Value: []byte("tx2"), UT: hlc.New(10, 0), SrcDC: 0, TxID: 2})
	if got := s.ReadVisible("j", all); string(got.Value) != "tx2" {
		t.Errorf("LWW winner = %s, want tx2", got.Value)
	}
}

func TestVersionLessTotalOrderProperty(t *testing.T) {
	f := func(ut1, ut2 uint32, src1, src2 uint8, id1, id2 uint16) bool {
		a := &Version{UT: hlc.Timestamp(ut1), SrcDC: src1, TxID: uint64(id1)}
		b := &Version{UT: hlc.Timestamp(ut2), SrcDC: src2, TxID: uint64(id2)}
		equal := ut1 == ut2 && src1 == src2 && id1 == id2
		if equal {
			return !a.Less(b) && !b.Less(a)
		}
		// Exactly one direction for distinct versions (totality/antisymmetry).
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGCPreservesSnapshotBase(t *testing.T) {
	s := New()
	s.Put("k", ver(10, 0, 1, "v10"))
	s.Put("k", ver(20, 0, 2, "v20"))
	s.Put("k", ver(30, 0, 3, "v30"))
	s.Put("k", ver(40, 0, 4, "v40"))

	removed := s.GC(hlc.New(25, 0))
	if removed != 1 {
		t.Errorf("GC removed %d, want 1 (only v10)", removed)
	}
	// A transaction reading at snapshot 25 must still see v20.
	upTo25 := func(v *Version) bool { return v.UT <= hlc.New(25, 0) }
	if got := s.ReadVisible("k", upTo25); got == nil || string(got.Value) != "v20" {
		t.Fatalf("snapshot base lost: got %v", got)
	}
	if s.VersionsOf("k") != 3 {
		t.Errorf("VersionsOf = %d, want 3", s.VersionsOf("k"))
	}
}

func TestGCNothingToPrune(t *testing.T) {
	s := New()
	s.Put("k", ver(10, 0, 1, "a"))
	if removed := s.GC(hlc.New(5, 0)); removed != 0 {
		t.Errorf("GC below all versions removed %d, want 0", removed)
	}
	if removed := s.GC(hlc.New(10, 0)); removed != 0 {
		t.Errorf("GC with single version removed %d, want 0", removed)
	}
}

func TestGCAllOldVersions(t *testing.T) {
	s := New()
	for i := 1; i <= 100; i++ {
		s.Put("k", ver(int64(i), 0, uint64(i), fmt.Sprintf("v%d", i)))
	}
	removed := s.GC(hlc.New(1000, 0))
	if removed != 99 {
		t.Errorf("GC removed %d, want 99", removed)
	}
	if got := s.ReadVisible("k", all); string(got.Value) != "v100" {
		t.Errorf("latest = %s, want v100", got.Value)
	}
}

func TestGCPropertyNeverBreaksSnapshotReads(t *testing.T) {
	// Property: after GC(oldest), any snapshot read at ts >= oldest returns
	// the same version as before GC.
	f := func(utsRaw []uint8, gcAtRaw, readAtRaw uint8) bool {
		if len(utsRaw) == 0 {
			return true
		}
		s := New()
		maxUT := int64(0)
		for i, u := range utsRaw {
			ut := int64(u) + 1
			if ut > maxUT {
				maxUT = ut
			}
			s.Put("k", ver(ut, 0, uint64(i), fmt.Sprintf("v%d-%d", ut, i)))
		}
		gcAt := int64(gcAtRaw)
		readAt := gcAt + int64(readAtRaw) // readAt >= gcAt
		pred := func(v *Version) bool { return v.UT <= hlc.New(readAt, 0) }
		before := s.ReadVisible("k", pred)
		s.GC(hlc.New(gcAt, 0))
		after := s.ReadVisible("k", pred)
		if before == nil {
			return after == nil
		}
		return after != nil && string(after.Value) == string(before.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLatest(t *testing.T) {
	s := New()
	if s.Latest("k") != nil {
		t.Error("Latest of missing key should be nil")
	}
	s.Put("k", ver(10, 0, 1, "a"))
	s.Put("k", ver(5, 0, 2, "b"))
	if got := s.Latest("k"); string(got.Value) != "a" {
		t.Errorf("Latest = %s, want a", got.Value)
	}
}

func TestCounters(t *testing.T) {
	s := New()
	s.Put("a", ver(1, 0, 1, "x"))
	s.Put("a", ver(2, 0, 2, "y"))
	s.Put("b", ver(1, 0, 3, "z"))
	if s.Keys() != 2 {
		t.Errorf("Keys = %d, want 2", s.Keys())
	}
	if s.Versions() != 3 {
		t.Errorf("Versions = %d, want 3", s.Versions())
	}
	if s.VersionsOf("a") != 2 {
		t.Errorf("VersionsOf(a) = %d, want 2", s.VersionsOf("a"))
	}
}

func TestForEachKey(t *testing.T) {
	s := New()
	s.Put("a", ver(1, 0, 1, "x"))
	s.Put("b", ver(1, 0, 2, "y"))
	seen := map[string]bool{}
	s.ForEachKey(func(k string) { seen[k] = true })
	if !seen["a"] || !seen["b"] || len(seen) != 2 {
		t.Errorf("ForEachKey visited %v", seen)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 500; i++ {
				key := fmt.Sprintf("k%d", i%10)
				s.Put(key, ver(int64(i), uint8(w), uint64(i), "v"))
			}
		}(w)
	}
	// Readers and GC racing with writers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", rng.Intn(10))
				_ = s.ReadVisible(key, all)
				_ = s.GC(hlc.New(int64(rng.Intn(100)), 0))
			}
		}()
	}
	// Let writers finish, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// Writers are in wg too; signal readers once a while has passed.
	// Simplest: wait for writers via counting separately.
	close(stop)
	<-done
	if s.Keys() == 0 {
		t.Error("store empty after concurrent writes")
	}
}

// TestPruneChainBoundedByBase pins the cross-tier GC primitive: removals
// are bounded by the caller's base version, so a write that raced in
// AFTER the caller's drop-whole-chain decision (it is newer than base)
// must survive — an unconditional chain delete would silently lose an
// acknowledged committed update.
func TestPruneChainBoundedByBase(t *testing.T) {
	s := NewSharded(2)
	old := &Version{Value: []byte("old"), UT: 10, TxID: 1}
	tomb := &Version{Value: nil, UT: 20, TxID: 2}
	s.Put("k", old)
	s.Put("k", tomb)

	// Plain prune: versions strictly older than base go, base stays.
	if got := s.PruneChain("k", tomb, false); got != 1 {
		t.Fatalf("PruneChain(!dropWhole) removed %d, want 1", got)
	}
	if got := s.VersionsOf("k"); got != 1 {
		t.Fatalf("VersionsOf = %d, want 1 (the base)", got)
	}

	// dropWhole with a version newer than base present — the racing-write
	// shape: only versions up to and including base are removed.
	racing := &Version{Value: []byte("racing"), UT: 30, TxID: 3}
	s.Put("k", racing)
	if got := s.PruneChain("k", tomb, true); got != 1 {
		t.Fatalf("PruneChain(dropWhole, racing write) removed %d, want 1 (the tombstone)", got)
	}
	if lv := s.Latest("k"); lv != racing {
		t.Fatalf("racing write lost: Latest = %+v", lv)
	}

	// dropWhole with nothing newer: the whole chain goes.
	if got := s.PruneChain("k", racing, true); got != 1 {
		t.Fatalf("PruneChain(dropWhole) removed %d, want 1", got)
	}
	if got := s.Keys(); got != 0 {
		t.Fatalf("Keys = %d after whole-chain drop, want 0", got)
	}
	// Absent keys and bases older than everything are no-ops.
	if got := s.PruneChain("absent", tomb, true); got != 0 {
		t.Fatalf("PruneChain(absent) = %d, want 0", got)
	}
}

// TestPruneKeepsChainAllocationFree pins version-chain pruning at zero
// allocations: GCStats and PruneChain compact a chain in place, so a hot
// key's chain keeps its capacity and the next insert reuses it instead of
// growing an exact-size copy again.
func TestPruneKeepsChainAllocationFree(t *testing.T) {
	const key = "hot"
	s := NewSharded(1)
	vs := make([]*Version, 2000)
	for i := range vs {
		vs[i] = ver(int64(i+1), 0, uint64(i+1), "v")
	}
	next := 0
	put := func() *Version {
		v := vs[next]
		next++
		s.Put(key, v)
		return v
	}
	first := func() **Version { return &s.shards[0].chains[key][:1][0] }

	// Warm the chain up to its steady-state capacity.
	for i := 0; i < 4; i++ {
		put()
	}
	s.GCStats(put().UT)
	before := first()
	for i := 0; i < 100; i++ {
		if removed := s.GCStats(put().UT).Removed; removed != 1 {
			t.Fatalf("GCStats removed %d versions, want 1", removed)
		}
	}
	if first() != before {
		t.Fatal("insert after GCStats reallocated the chain")
	}

	allocs := testing.AllocsPerRun(500, func() {
		if s.PruneChain(key, put(), false) != 1 {
			t.Fatal("PruneChain did not remove exactly the version below base")
		}
	})
	if allocs > 0 {
		t.Fatalf("insert+PruneChain on a warmed hot key allocates %.1f/op, want 0", allocs)
	}
	chain := s.shards[0].chains[key]
	if len(chain) != 1 || chain[0] != vs[next-1] {
		t.Fatalf("chain holds %d versions, want only the newest", len(chain))
	}
	for _, v := range chain[len(chain):cap(chain)] {
		if v != nil {
			t.Fatal("pruned version still referenced from the chain's spare capacity")
		}
	}
}
