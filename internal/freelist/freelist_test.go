package freelist

import (
	"sync"
	"sync/atomic"
	"testing"
)

type obj struct {
	id    int
	owned atomic.Bool
}

func TestGetPutReusesUpToCapacity(t *testing.T) {
	built := 0
	l := New(3, func() *obj { built++; return &obj{id: built} })
	var objs []*obj
	for i := 0; i < 5; i++ {
		objs = append(objs, l.Get())
	}
	if built != 5 {
		t.Fatalf("built %d objects from an empty list, want 5", built)
	}
	for _, o := range objs {
		l.Put(o) // the last two find the list full and are dropped
	}
	seen := map[*obj]bool{}
	for i := 0; i < 3; i++ {
		o := l.Get()
		if seen[o] {
			t.Fatalf("object %d handed out twice", o.id)
		}
		seen[o] = true
	}
	if built != 5 {
		t.Fatalf("Get built a new object while %d were idle", 3)
	}
	l.Get()
	if built != 6 {
		t.Fatalf("built = %d after draining the list, want 6", built)
	}
}

func TestGetPutAllocationFree(t *testing.T) {
	l := New(4, func() *obj { return new(obj) })
	l.Put(new(obj))
	if n := testing.AllocsPerRun(1000, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("Get+Put allocates %.1f per op, want 0", n)
	}
}

// TestConcurrentExclusiveOwnership hammers a small list from many
// goroutines: an object must never be handed to two owners at once, and
// no idle object may be lost or duplicated by a torn stack update.
func TestConcurrentExclusiveOwnership(t *testing.T) {
	const capacity, workers, rounds = 8, 16, 2000
	var built atomic.Int64
	l := New(capacity, func() *obj { built.Add(1); return new(obj) })
	for i := 0; i < capacity; i++ {
		l.Put(new(obj))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := make([]*obj, 0, 3)
			for r := 0; r < rounds; r++ {
				for k := 0; k <= r%3; k++ {
					o := l.Get()
					if !o.owned.CompareAndSwap(false, true) {
						t.Error("object handed to two owners at once")
						return
					}
					held = append(held, o)
				}
				for _, o := range held {
					o.owned.Store(false)
					l.Put(o)
				}
				held = held[:0]
			}
		}()
	}
	wg.Wait()
	// Every object went back and there were at least capacity of them, so
	// the list must yield exactly capacity distinct idle objects before
	// building a new one.
	before := built.Load()
	seen := map[*obj]bool{}
	for i := 0; i < capacity; i++ {
		o := l.Get()
		if seen[o] {
			t.Fatal("idle object duplicated")
		}
		seen[o] = true
	}
	if built.Load() != before {
		t.Fatalf("only %d of %d slots held an idle object after the run", capacity-int(built.Load()-before), capacity)
	}
	l.Get()
	if built.Load() != before+1 {
		t.Fatal("list yielded more idle objects than its capacity")
	}
}
