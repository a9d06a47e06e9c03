// Package transport provides the messaging substrate used by Wren and Cure
// servers: point-to-point, lossless, FIFO channels (the paper's §II-A
// assumption), with a configurable latency model for simulating a multi-DC
// deployment, injectable inter-DC network partitions, and per-class byte
// accounting from real encoded message sizes (the input to Figure 7a).
//
// The in-memory implementation delivers each (sender, receiver) pair's
// messages through a dedicated FIFO queue drained by one goroutine, so
// delivery order always matches send order, exactly like a TCP connection.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/wire"
)

// NodeID identifies a process in the deployment: a partition server
// (Node < ClientBase) or a client process (Node >= ClientBase), placed in a
// data center.
type NodeID struct {
	DC   int
	Node int
}

// ClientBase is the first Node number used for client processes; partition
// servers are numbered 0..N-1.
const ClientBase = 1 << 16

// ClientID builds the NodeID for the i-th client process of a DC.
func ClientID(dc, i int) NodeID { return NodeID{DC: dc, Node: ClientBase + i} }

// ServerID builds the NodeID for partition n of DC m.
func ServerID(dc, partition int) NodeID { return NodeID{DC: dc, Node: partition} }

// IsClient reports whether the node is a client process.
func (n NodeID) IsClient() bool { return n.Node >= ClientBase }

// String implements fmt.Stringer.
func (n NodeID) String() string {
	if n.IsClient() {
		return fmt.Sprintf("dc%d/client%d", n.DC, n.Node-ClientBase)
	}
	return fmt.Sprintf("dc%d/p%d", n.DC, n.Node)
}

// Handler receives messages delivered by the network. Implementations must
// not block for unbounded time: protocols that need to wait (e.g. Cure's
// blocking reads) park the request and reply asynchronously instead.
type Handler interface {
	HandleMessage(from NodeID, m wire.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, m wire.Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from NodeID, m wire.Message) { f(from, m) }

// Network abstracts message passing so that servers run unchanged over the
// in-memory simulator or real TCP sockets.
type Network interface {
	// Register installs the handler for a node. It must be called before
	// any message is sent to that node.
	Register(id NodeID, h Handler)
	// Send enqueues a message for asynchronous FIFO delivery.
	Send(from, to NodeID, m wire.Message) error
	// Close stops delivery and releases resources.
	Close()
}

// ErrClosed is returned by Send after the network is closed.
var ErrClosed = errors.New("transport: network closed")

// ErrUnknownNode is returned when sending to an unregistered node.
var ErrUnknownNode = errors.New("transport: unknown destination")

// ErrOverloaded is returned by Send when a transport's bounded outbound
// queue for the destination is full: the message is shed instead of
// blocking the caller (protocol handlers must never stall on a slow or
// dead link). Senders treat it as transient and retry with backoff.
var ErrOverloaded = errors.New("transport: outbound queue overloaded")

// ErrTimeout is returned by request/response helpers layered over a
// Network (the client connection pool) when no response arrived within
// the caller's deadline. The request may or may not have executed.
var ErrTimeout = errors.New("transport: request timed out")

// LatencyFunc returns the one-way delivery latency between two nodes.
type LatencyFunc func(from, to NodeID) time.Duration

// UniformLatency builds a LatencyFunc with one intra-DC latency and one
// inter-DC latency.
func UniformLatency(intraDC, interDC time.Duration) LatencyFunc {
	return func(from, to NodeID) time.Duration {
		if from.DC == to.DC {
			return intraDC
		}
		return interDC
	}
}

// MatrixLatency builds a LatencyFunc from a per-DC-pair one-way latency
// matrix; intraDC is used within a DC. Missing pairs fall back to def.
func MatrixLatency(intraDC time.Duration, m map[[2]int]time.Duration, def time.Duration) LatencyFunc {
	return func(from, to NodeID) time.Duration {
		if from.DC == to.DC {
			return intraDC
		}
		if d, ok := m[[2]int{from.DC, to.DC}]; ok {
			return d
		}
		if d, ok := m[[2]int{to.DC, from.DC}]; ok {
			return d
		}
		return def
	}
}

// AWSLatencies returns a one-way inter-DC latency matrix modeled on the
// paper's five EC2 regions, scaled by the given factor (1.0 = realistic;
// benchmarks use smaller factors to compress wall-clock time). Order:
// 0=Virginia, 1=Oregon, 2=Ireland, 3=Mumbai, 4=Sydney.
func AWSLatencies(scale float64) map[[2]int]time.Duration {
	ms := func(f float64) time.Duration {
		return time.Duration(f * scale * float64(time.Millisecond))
	}
	return map[[2]int]time.Duration{
		{0, 1}: ms(35), // Virginia-Oregon
		{0, 2}: ms(40), // Virginia-Ireland
		{0, 3}: ms(91), // Virginia-Mumbai
		{0, 4}: ms(98), // Virginia-Sydney
		{1, 2}: ms(62), // Oregon-Ireland
		{1, 3}: ms(109),
		{1, 4}: ms(70),
		{2, 3}: ms(61),
		{2, 4}: ms(134),
		{3, 4}: ms(111),
	}
}

// classStats accumulates bytes/messages for one accounting class.
type classStats struct {
	msgs       atomic.Uint64
	bytes      atomic.Uint64
	interMsgs  atomic.Uint64
	interBytes atomic.Uint64
}

// Stats is a snapshot of per-class traffic counters.
type Stats struct {
	// Bytes and Msgs are indexed by wire.Class.
	Bytes      map[wire.Class]uint64
	Msgs       map[wire.Class]uint64
	InterBytes map[wire.Class]uint64 // subset crossing DC boundaries
	InterMsgs  map[wire.Class]uint64
}

// Total returns total bytes across all classes.
func (s Stats) Total() uint64 {
	var t uint64
	for _, b := range s.Bytes {
		t += b
	}
	return t
}

const numClasses = int(wire.ClassControl) + 1

// Memory is the in-process Network implementation.
type Memory struct {
	latency LatencyFunc

	mu       sync.RWMutex
	handlers map[NodeID]Handler
	links    map[[2]NodeID]*link
	closed   bool

	downMu  sync.RWMutex
	downDCs map[[2]int]bool
	healGen chan struct{} // closed and replaced when a partition heals

	stats [numClasses]classStats

	wg sync.WaitGroup
}

var _ Network = (*Memory)(nil)

// NewMemory builds an in-process network with the given latency model.
// A nil latency function means zero latency everywhere.
func NewMemory(latency LatencyFunc) *Memory {
	if latency == nil {
		latency = func(NodeID, NodeID) time.Duration { return 0 }
	}
	return &Memory{
		latency:  latency,
		handlers: make(map[NodeID]Handler),
		links:    make(map[[2]NodeID]*link),
		downDCs:  make(map[[2]int]bool),
		healGen:  make(chan struct{}),
	}
}

// Register implements Network.
func (n *Memory) Register(id NodeID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
}

// Send implements Network. The message is enqueued on the (from, to) FIFO
// link and delivered after the link latency. Inter-DC messages wait while
// the DC pair is partitioned (they are queued, not dropped — the paper's
// channels are lossless, like TCP with retries).
func (n *Memory) Send(from, to NodeID, m wire.Message) error {
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return ErrClosed
	}
	if _, ok := n.handlers[to]; !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %v", ErrUnknownNode, to)
	}
	l := n.links[[2]NodeID{from, to}]
	n.mu.RUnlock()

	if l == nil {
		l = n.getOrCreateLink(from, to)
		if l == nil {
			return ErrClosed
		}
	}

	l.enqueue(m, time.Now().Add(n.latency(from, to)))
	return nil
}

func (n *Memory) getOrCreateLink(from, to NodeID) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	key := [2]NodeID{from, to}
	if l, ok := n.links[key]; ok {
		return l
	}
	l := newLink(n, from, to)
	n.links[key] = l
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		l.run()
	}()
	return l
}

// SetDCLinkDown partitions (or heals) the network between two DCs in both
// directions. While down, messages queue and are delivered after healing.
func (n *Memory) SetDCLinkDown(dcA, dcB int, down bool) {
	if dcA > dcB {
		dcA, dcB = dcB, dcA
	}
	n.downMu.Lock()
	if down {
		n.downDCs[[2]int{dcA, dcB}] = down
		n.downMu.Unlock()
		return
	}
	delete(n.downDCs, [2]int{dcA, dcB})
	// Wake every link blocked on a partition by rotating the heal channel.
	old := n.healGen
	n.healGen = make(chan struct{})
	n.downMu.Unlock()
	close(old)
}

func (n *Memory) isDCLinkDown(dcA, dcB int) (bool, chan struct{}) {
	if dcA > dcB {
		dcA, dcB = dcB, dcA
	}
	n.downMu.RLock()
	defer n.downMu.RUnlock()
	return n.downDCs[[2]int{dcA, dcB}], n.healGen
}

// Stats returns a snapshot of the traffic counters.
func (n *Memory) Stats() Stats {
	s := Stats{
		Bytes:      make(map[wire.Class]uint64, numClasses),
		Msgs:       make(map[wire.Class]uint64, numClasses),
		InterBytes: make(map[wire.Class]uint64, numClasses),
		InterMsgs:  make(map[wire.Class]uint64, numClasses),
	}
	for c := 1; c < numClasses; c++ {
		cls := wire.Class(c)
		s.Bytes[cls] = n.stats[c].bytes.Load()
		s.Msgs[cls] = n.stats[c].msgs.Load()
		s.InterBytes[cls] = n.stats[c].interBytes.Load()
		s.InterMsgs[cls] = n.stats[c].interMsgs.Load()
	}
	return s
}

// ResetStats zeroes the traffic counters (used between benchmark phases).
func (n *Memory) ResetStats() {
	for c := range n.stats {
		n.stats[c].bytes.Store(0)
		n.stats[c].msgs.Store(0)
		n.stats[c].interBytes.Store(0)
		n.stats[c].interMsgs.Store(0)
	}
}

// Close implements Network. It stops all delivery goroutines and waits for
// them to exit; undelivered messages are dropped.
func (n *Memory) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()

	for _, l := range links {
		l.close()
	}
	// Unblock any link waiting on a partition heal.
	n.SetDCLinkDown(-1, -2, false)
	n.wg.Wait()
}

type delivery struct {
	at  time.Time
	msg wire.Message
}

// link is a FIFO delivery queue for one (from, to) pair, drained by a
// single goroutine so handler invocation order equals send order. In
// steady state neither side allocates: senders append into a buffer the
// delivery goroutine handed back, the goroutine takes the whole queue in
// one swap, latency waits share one timer, and byte accounting measures
// with the link's own sizer.
type link struct {
	net  *Memory
	from NodeID
	to   NodeID

	mu     sync.Mutex
	q      []delivery
	closed bool
	sizer  wire.Sizer    // guarded by mu
	notify chan struct{} // capacity 1: send-side kick
	done   chan struct{}
}

func newLink(n *Memory, from, to NodeID) *link {
	return &link{
		net:    n,
		from:   from,
		to:     to,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

func (l *link) enqueue(m wire.Message, at time.Time) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if l.from != l.to {
		sz := uint64(l.sizer.Size(m))
		st := &l.net.stats[int(m.Class())]
		st.msgs.Add(1)
		st.bytes.Add(sz)
		if l.from.DC != l.to.DC {
			st.interMsgs.Add(1)
			st.interBytes.Add(sz)
		}
	}
	l.q = append(l.q, delivery{at: at, msg: m})
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

func (l *link) close() {
	l.mu.Lock()
	alreadyClosed := l.closed
	l.closed = true
	l.mu.Unlock()
	if !alreadyClosed {
		close(l.done)
	}
}

// run delivers the queue until the link closes. Each round swaps the
// whole pending queue out for the previous round's emptied buffer, so the
// two buffers alternate and senders never wait on a delivery.
func (l *link) run() {
	var batch []delivery
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.mu.Unlock()
			select {
			case <-l.notify:
			case <-l.done:
				return
			}
			l.mu.Lock()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		batch, l.q = l.q, batch[:0]
		l.mu.Unlock()

		for i := range batch {
			if !l.deliver(&batch[i], timer) {
				return
			}
			batch[i] = delivery{} // drop the reference: the buffer is reused
		}
	}
}

// deliver hands one message to the destination handler once its latency
// has elapsed and its DC pair is not partitioned. It reports false when
// the link closed first: undelivered messages are dropped.
func (l *link) deliver(d *delivery, timer *time.Timer) bool {
	// Honor link latency.
	if wait := time.Until(d.at); wait > 0 {
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-l.done:
			timer.Stop()
			return false
		}
	}

	// Honor inter-DC partitions: hold delivery until healed.
	if l.from.DC != l.to.DC {
		for {
			down, heal := l.net.isDCLinkDown(l.from.DC, l.to.DC)
			if !down {
				break
			}
			select {
			case <-heal:
			case <-l.done:
				return false
			}
		}
	}

	select {
	case <-l.done:
		return false
	default:
	}
	l.net.mu.RLock()
	h := l.net.handlers[l.to]
	l.net.mu.RUnlock()
	if h != nil {
		h.HandleMessage(l.from, d.msg)
	}
	return true
}
