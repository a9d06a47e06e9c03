// Package freelist provides a bounded, lock-free free list of reusable
// objects. The server read handlers recycle their scratch buffers and
// messages through it instead of sync.Pool: a sync.Pool's first Get after
// every garbage collection registers the pool under a process-wide runtime
// mutex, which puts a server-wide lock on the nonblocking read path once
// per GC cycle. A List takes no lock at all — Get and Put are a couple of
// compare-and-swaps on two index-tagged Treiber stacks.
//
// A List holds at most its capacity of idle objects. Get on an empty list
// builds a fresh object; Put on a full one drops the object to the garbage
// collector. Both are safe for concurrent use.
package freelist

import "sync/atomic"

// List is a bounded free list of *T. Build one with New.
type List[T any] struct {
	newFn func() *T
	slots []slot[T]
	// full stacks the slots that hold an idle object; empty stacks the
	// slots free to receive one. Every slot is on exactly one of them,
	// except while a Get or Put owns it between its pop and its push.
	full  stack
	empty stack
}

type slot[T any] struct {
	// item is touched only by the goroutine that popped the slot; the
	// push/pop compare-and-swaps order those accesses.
	item *T
	// next links the slot to the one below it on its stack (1-based
	// index, 0 = bottom). Atomic because a pop that lost its race may
	// still read it while the slot's new owner rewrites it.
	next atomic.Uint32
}

// stack is a Treiber stack of 1-based slot indexes. head packs a
// modification tag (high 32 bits) with the top index (low 32 bits); the
// tag changes on every successful update, so a pop holding a stale next
// link — the slot was popped and pushed back in between (ABA) — fails its
// compare-and-swap instead of corrupting the stack.
type stack struct {
	head atomic.Uint64
	_    [56]byte // keep the two heads on separate cache lines
}

// New builds a list holding at most capacity idle objects; newFn builds
// an object when Get finds the list empty.
func New[T any](capacity int, newFn func() *T) *List[T] {
	if capacity < 1 || capacity > 1<<31 {
		panic("freelist: capacity out of range")
	}
	l := &List[T]{newFn: newFn, slots: make([]slot[T], capacity)}
	for i := 1; i <= capacity; i++ {
		l.push(&l.empty, uint32(i))
	}
	return l
}

// Get returns an idle object, or a new one when none is idle. The caller
// owns it exclusively until it hands it back with Put.
func (l *List[T]) Get() *T {
	i := l.pop(&l.full)
	if i == 0 {
		return l.newFn()
	}
	s := &l.slots[i-1]
	x := s.item
	s.item = nil
	l.push(&l.empty, i)
	return x
}

// Put hands x back for reuse; the caller must not touch it afterwards.
// Callers reset x first so an idle object pins nothing. When the list is
// full, x is left to the garbage collector.
func (l *List[T]) Put(x *T) {
	i := l.pop(&l.empty)
	if i == 0 {
		return
	}
	l.slots[i-1].item = x
	l.push(&l.full, i)
}

func (l *List[T]) push(s *stack, i uint32) {
	for {
		old := s.head.Load()
		l.slots[i-1].next.Store(uint32(old))
		if s.head.CompareAndSwap(old, (old>>32+1)<<32|uint64(i)) {
			return
		}
	}
}

func (l *List[T]) pop(s *stack) uint32 {
	for {
		old := s.head.Load()
		i := uint32(old)
		if i == 0 {
			return 0
		}
		next := l.slots[i-1].next.Load()
		if s.head.CompareAndSwap(old, (old>>32+1)<<32|uint64(next)) {
			return i
		}
	}
}
