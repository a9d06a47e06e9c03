package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/wire"
)

// seqMsg encodes (sender goroutine, sequence number) in a CommitTx id.
func seqMsg(g, i int) *wire.CommitTx { return &wire.CommitTx{TxID: uint64(g)<<32 | uint64(i)} }

// checkPerSenderFIFO asserts every sender goroutine's messages arrived in
// send order and none is missing or duplicated.
func checkPerSenderFIFO(t *testing.T, msgs []wire.Message, senders, per int) {
	t.Helper()
	next := make([]int, senders)
	for _, m := range msgs {
		id := m.(*wire.CommitTx).TxID
		g, i := int(id>>32), int(uint32(id))
		if i != next[g] {
			t.Fatalf("sender %d: message %d arrived when %d was due", g, i, next[g])
		}
		next[g]++
	}
	for g, n := range next {
		if n != per {
			t.Fatalf("sender %d: %d of %d messages arrived", g, n, per)
		}
	}
}

// TestMemoryLinkFIFOUnderLatency sends from several goroutines over ONE
// link with latency, so deliveries straddle many queue swaps and timer
// waits: each goroutine's stream must still arrive in order, and nothing
// may arrive before the link latency has elapsed.
func TestMemoryLinkFIFOUnderLatency(t *testing.T) {
	const lat = 2 * time.Millisecond
	n := NewMemory(UniformLatency(lat, lat))
	defer n.Close()
	recv := newCollector()
	a, b := ServerID(0, 0), ServerID(0, 1)
	n.Register(b, recv)

	const senders, per = 4, 250
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := n.Send(a, b, seqMsg(g, i)); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					time.Sleep(lat / 2) // let the link drain mid-stream
				}
			}
		}()
	}
	select {
	case <-recv.ch:
		if d := time.Since(start); d < lat {
			t.Fatalf("first message delivered after %v, before the %v link latency", d, lat)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
	wg.Wait()
	recv.waitN(t, senders*per-1, 10*time.Second)
	checkPerSenderFIFO(t, recv.snapshot(), senders, per)
}

// TestMemoryLinkPartitionHoldsStreamAndHeals queues a concurrent stream
// behind a DC partition: nothing crosses while it is down, and after the
// heal the whole stream arrives, in per-sender order, including what was
// sent while the heal was happening.
func TestMemoryLinkPartitionHoldsStreamAndHeals(t *testing.T) {
	n := NewMemory(UniformLatency(0, 100*time.Microsecond))
	defer n.Close()
	recv := newCollector()
	a, b := ServerID(0, 0), ServerID(1, 0)
	n.Register(b, recv)

	n.SetDCLinkDown(0, 1, true)
	const senders, per = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := n.Send(a, b, seqMsg(g, i)); err != nil {
					t.Error(err)
					return
				}
				if i == per/2 && g == 0 {
					time.Sleep(20 * time.Millisecond)
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	select {
	case <-recv.ch:
		t.Fatal("message delivered across a partitioned link")
	default:
	}
	n.SetDCLinkDown(0, 1, false)
	wg.Wait()
	recv.waitN(t, senders*per, 10*time.Second)
	checkPerSenderFIFO(t, recv.snapshot(), senders, per)
}

// TestMemoryCloseDropsUndeliveredWithConcurrentSenders closes the network
// while senders are still sending over latency-delayed and partitioned
// links: Close must return, no handler may run after it has returned,
// and every later Send must fail with ErrClosed.
func TestMemoryCloseDropsUndeliveredWithConcurrentSenders(t *testing.T) {
	n := NewMemory(UniformLatency(time.Millisecond, 5*time.Millisecond))
	var delivered atomic.Int64
	var closed atomic.Bool
	h := HandlerFunc(func(NodeID, wire.Message) {
		if closed.Load() {
			t.Error("message delivered after Close returned")
		}
		delivered.Add(1)
	})
	dsts := []NodeID{ServerID(0, 1), ServerID(1, 0), ServerID(2, 0)}
	for _, d := range dsts {
		n.Register(d, h)
	}
	n.SetDCLinkDown(0, 2, true) // this link holds its whole queue until Close

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := n.Send(ServerID(0, 0), dsts[i%len(dsts)], seqMsg(g, i)); errors.Is(err, ErrClosed) {
					return
				} else if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	n.Close()
	closed.Store(true)
	close(stop)
	wg.Wait()
	if delivered.Load() == 0 {
		t.Error("nothing was delivered before Close")
	}
	if err := n.Send(ServerID(0, 0), dsts[0], seqMsg(0, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

// TestMemorySendDeliverAllocationFree pins the in-memory link's own cost:
// once its buffers have grown, a Send plus its delivery allocates nothing
// (the message itself is built once, outside the measured loop).
func TestMemorySendDeliverAllocationFree(t *testing.T) {
	n := NewMemory(UniformLatency(0, 0))
	defer n.Close()
	got := make(chan struct{}, 1)
	a, b := ServerID(0, 0), ServerID(1, 0)
	n.Register(b, HandlerFunc(func(NodeID, wire.Message) { got <- struct{}{} }))
	m := &wire.Replicate{SrcDC: 0, Txs: []wire.ReplTx{{TxID: 1, CT: hlc.New(1, 0)}}}
	round := func() {
		if err := n.Send(a, b, m); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 10; i++ {
		round() // create the link and grow both queue buffers
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("Send+delivery allocates %.2f per message, want 0", allocs)
	}
}
