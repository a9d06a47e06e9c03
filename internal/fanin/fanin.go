// Package fanin implements the completion-counter fan-in for transactional
// reads. A coordinator fans a TxReadReq out as one SliceReq per remote
// partition; instead of parking a goroutine per in-flight read to collect
// the responses (a goroutine stack, channel allocations, and scheduler
// wakeups per read), each arriving SliceResp folds its items into the
// shared TxRead and decrements a counter — the LAST arrival assembles and
// returns the TxReadResp for the caller to send. No goroutine ever waits.
//
// Both protocol servers (core, cure) share this mechanism; it is what
// replaces their per-read goAsync goroutine.
package fanin

import (
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/freelist"
	"wren/internal/transport"
	"wren/internal/wire"
)

// TxRead is the in-flight state of one transactional read. It is pooled:
// Start draws from the pool and the final Finish returns it.
type TxRead struct {
	from    transport.NodeID
	created time.Time

	// remaining counts outstanding contributions: one per registered
	// remote slice call plus one held by the coordinator itself (released
	// by its own Finish after all calls are registered, so a fast response
	// can never complete the read before registration is done).
	remaining atomic.Int32

	// mu guards resp while multiple SliceResps fold in concurrently. It is
	// per-read, never shared across requests — contention is bounded by
	// one read's own fan-out, not by server load.
	mu   sync.Mutex
	resp *wire.TxReadResp
}

// pool recycles TxReads. A lock-free free list, not a sync.Pool: Start
// runs inside the read handlers, which must take no server-wide mutex.
var pool = freelist.New(1024, func() *TxRead { return new(TxRead) })

// Fanout is the reusable per-read key grouping both protocol servers pool:
// Groups[p] collects the keys partition p owns, Touched lists the
// non-empty groups in first-touch order. It replaces the map-allocating
// per-partition grouping on the read hot path. Not safe for concurrent
// use; callers draw one from a pool per read.
type Fanout struct {
	Groups  [][]string
	Touched []int
}

// Reset prepares the scratch for a deployment with the given partition
// count, clearing only the groups the previous read touched.
func (f *Fanout) Reset(parts int) {
	if cap(f.Groups) < parts {
		f.Groups = make([][]string, parts)
	}
	f.Groups = f.Groups[:parts]
	for _, p := range f.Touched {
		f.Groups[p] = f.Groups[p][:0]
	}
	f.Touched = f.Touched[:0]
}

// Add appends key to partition p's group, recording first touches.
func (f *Fanout) Add(p int, key string) {
	if len(f.Groups[p]) == 0 {
		f.Touched = append(f.Touched, p)
	}
	f.Groups[p] = append(f.Groups[p], key)
}

// Start begins a fan-in for a read issued by client `from` under the
// client-visible request id reqID, expecting `calls` remote slice
// responses. The returned TxRead must be registered under each remote
// call's request id, then completed once with Finish by the coordinator.
func Start(from transport.NodeID, reqID uint64, calls int) *TxRead {
	r := pool.Get()
	r.from = from
	r.created = time.Now()
	r.remaining.Store(int32(calls) + 1)
	r.resp = wire.GetTxReadResp()
	r.resp.ReqID = reqID
	return r
}

// Created returns when the fan-in started, for staleness sweeps.
func (r *TxRead) Created() time.Time { return r.created }

// From returns the client the fan-in answers, so staleness sweeps can
// release per-connection admission slots for reads that will never finish.
func (r *TxRead) From() transport.NodeID { return r.from }

// Items and SetItems expose the response's item buffer for direct,
// copy-free appends by the coordinator's local fast path. They are safe
// ONLY before the first remote call is registered: until then no other
// goroutine can reach the fan-in, so no lock is needed and no staging
// buffer or extra copy is paid.
func (r *TxRead) Items() []wire.Item { return r.resp.Items }

// SetItems stores the (possibly reallocated) buffer back. See Items.
func (r *TxRead) SetItems(items []wire.Item) { r.resp.Items = items }

// ChunkThreshold is the slice size at or above which Fold retains the
// arriving buffer by reference (as a TxReadResp chunk) instead of copying
// it item by item into the flat response. Small slices still copy: the
// per-chunk bookkeeping and the pool miss of a detached buffer cost more
// than a short memmove.
const ChunkThreshold = 64

// Fold merges one slice result into the response. Safe to call from
// concurrent response handlers.
//
// Large slices are folded without copying: the buffer is detached whole
// into the response's Chunks, and Fold returns true to tell the caller
// that ownership of items moved into the response — the caller must strip
// the slice from its pooled SliceResp (set Items = nil) before releasing
// the message, or the pool would hand the same backing array to two owners.
func (r *TxRead) Fold(items []wire.Item, blockedMicros int64) (stolen bool) {
	r.mu.Lock()
	if len(items) >= ChunkThreshold {
		r.resp.Chunks = append(r.resp.Chunks, items)
		stolen = true
	} else {
		r.resp.Items = append(r.resp.Items, items...)
	}
	if blockedMicros > r.resp.BlockedMicros {
		r.resp.BlockedMicros = blockedMicros
	}
	r.mu.Unlock()
	return stolen
}

// Finish releases one contribution. When it was the last, Finish returns
// the assembled response, its destination, and true — the caller must send
// the response (its ownership passes to the receiver) and must not touch r
// afterwards: the TxRead is already back in the pool.
func (r *TxRead) Finish() (*wire.TxReadResp, transport.NodeID, bool) {
	if r.remaining.Add(-1) != 0 {
		return nil, transport.NodeID{}, false
	}
	resp, to := r.resp, r.from
	r.resp = nil
	pool.Put(r)
	return resp, to, true
}
