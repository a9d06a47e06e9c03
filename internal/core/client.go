package core

import (
	"fmt"
	"sort"
	"sync"

	"wren/internal/hlc"
	"wren/internal/session"
	"wren/internal/transport"
	"wren/internal/wire"
)

// cacheEntry is one client-side cached write (an element of WC_c).
type cacheEntry struct {
	value []byte
	ct    hlc.Timestamp
}

// Causal is Wren's session causal state (Algorithm 1): the snapshot times
// lst_c and rst_c seen so far and the write cache WC_c of the session's
// own writes not yet covered by a snapshot. It implements session.Causal;
// the session serialises every call.
type Causal struct {
	lst   hlc.Timestamp // lst_c: local snapshot time seen so far
	rst   hlc.Timestamp // rst_c: remote snapshot time seen so far
	cache map[string]cacheEntry
}

// NewCausal returns the causal state of a fresh Wren session.
func NewCausal() *Causal {
	return &Causal{cache: make(map[string]cacheEntry)}
}

// StartReq implements session.Causal: the coordinator's snapshot must
// cover lst_c and rst_c.
func (c *Causal) StartReq() wire.StartTxReq {
	return wire.StartTxReq{LST: c.lst, RST: c.rst}
}

// FoldStart implements session.Causal. It advances lst_c and rst_c and
// prunes WC_c of every cached write the snapshot already includes
// (Algorithm 1 line 6). Safe because the coordinator enforces rt < lt, so
// any surviving entry is fresher than anything visible.
func (c *Causal) FoldStart(st *wire.StartTxResp) {
	c.lst = max(c.lst, st.LST)
	c.rst = max(c.rst, st.RST)
	for k, e := range c.cache {
		if e.ct <= c.lst {
			delete(c.cache, k)
		}
	}
}

// Lookup implements session.Causal from WC_c.
func (c *Causal) Lookup(key string) ([]byte, bool) {
	e, ok := c.cache[key]
	return e.value, ok
}

// FoldCommit implements session.Causal: it tags the write set with the
// commit time and moves it into WC_c (Algorithm 1 lines 29–31),
// overwriting older duplicates.
func (c *Causal) FoldCommit(ct hlc.Timestamp, ws map[string][]byte) {
	for k, v := range ws {
		c.cache[k] = cacheEntry{value: v, ct: ct}
	}
}

// Client is a Wren client session: the shared session core with Wren's
// causal state, plus the operations only Wren servers answer (Scan,
// Migrate) and accessors for its cache and snapshot times.
type Client struct {
	*session.Session
	causal *Causal
}

// NewClient creates a Wren client session.
func NewClient(cfg session.Config) (*Client, error) {
	causal := NewCausal()
	s, err := session.New(cfg, causal)
	if err != nil {
		return nil, err
	}
	return &Client{Session: s, causal: causal}, nil
}

// Begin starts an interactive transaction (Algorithm 1, START).
func (c *Client) Begin() (*Tx, error) {
	return c.BeginAt(c.Config().CoordinatorPartition)
}

// BeginAt starts a transaction on an explicit coordinator partition; see
// session.Session.BeginAt.
func (c *Client) BeginAt(coordinator int) (*Tx, error) {
	tx, err := c.Session.BeginAt(coordinator)
	if err != nil {
		return nil, err
	}
	return &Tx{Tx: tx, c: c}, nil
}

// CacheSize returns the number of entries in the client-side write cache
// (exposed for tests and the cache-ablation benchmark).
func (c *Client) CacheSize() (n int) {
	c.Do(func() { n = len(c.causal.cache) })
	return n
}

// SnapshotTimes returns the client's current (lst_c, rst_c).
func (c *Client) SnapshotTimes() (lst, rst hlc.Timestamp) {
	c.Do(func() { lst, rst = c.causal.lst, c.causal.rst })
	return lst, rst
}

// Tx is a Wren transaction: the shared session transaction plus Scan.
type Tx struct {
	*session.Tx
	c *Client
}

// Snapshot returns the transaction's (local, remote) snapshot timestamps.
func (t *Tx) Snapshot() (lt, rt hlc.Timestamp) {
	st := t.Start()
	return st.LST, st.RST
}

// ScanKV is one key/value pair yielded by Tx.Scan, in key order.
type ScanKV struct {
	Key   string
	Value []byte
}

// Scan returns every key in [start, end) visible in the transaction
// snapshot, in ascending key order, with the session's own writes
// overlaid (uncommitted writes and deletes from this transaction, plus
// committed writes from the client cache not yet covered by the
// snapshot). An empty end scans to the end of the keyspace; limit > 0
// caps the number of results. Keys are hash-sharded, so the range is
// fanned out to every partition in the client's DC and the per-partition
// sorted streams are merged; like every Wren read, the partitions answer
// from their stable snapshot without blocking.
func (t *Tx) Scan(start, end string, limit int) ([]ScanKV, error) {
	if t.Done() {
		return nil, session.ErrTxDone
	}
	cfg := t.c.Config()
	n := cfg.NumPartitions
	lt, rt := t.Snapshot()

	results := make([][]wire.Item, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			resp, err := t.c.CallRetry(transport.ServerID(cfg.DC, p), func(reqID uint64) wire.Message {
				return &wire.ScanReq{
					ReqID: reqID, Start: start, End: end, Limit: uint64(limit),
					LT: lt, RT: rt,
				}
			})
			if err != nil {
				errs[p] = err
				return
			}
			sr, ok := resp.(*wire.ScanResp)
			if !ok {
				errs[p] = fmt.Errorf("core: unexpected response %T to ScanReq", resp)
				return
			}
			results[p] = sr.Items
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Session overlay: the client cache first (committed writes the
	// snapshot may not cover yet), then this transaction's write set on
	// top. A nil value is a delete and hides the key.
	inRange := func(k string) bool { return k >= start && (end == "" || k < end) }
	overlay := make(map[string][]byte)
	t.c.Do(func() {
		for k, e := range t.c.causal.cache {
			if inRange(k) {
				overlay[k] = e.value
			}
		}
	})
	for k, v := range t.Writes() {
		if inRange(k) {
			overlay[k] = v
		}
	}
	okeys := make([]string, 0, len(overlay))
	for k := range overlay {
		okeys = append(okeys, k)
	}
	sort.Strings(okeys)

	// K-way merge of the per-partition streams (disjoint key sets, each
	// sorted) with the sorted overlay, overlay winning.
	heads := make([]int, n)
	oi := 0
	var out []ScanKV
	for {
		var minKey string
		found := false
		if oi < len(okeys) {
			minKey, found = okeys[oi], true
		}
		for p := 0; p < n; p++ {
			if heads[p] < len(results[p]) {
				if k := results[p][heads[p]].Key; !found || k < minKey {
					minKey, found = k, true
				}
			}
		}
		if !found {
			break
		}
		var val []byte
		have, fromOverlay := false, false
		if oi < len(okeys) && okeys[oi] == minKey {
			val = overlay[minKey]
			have, fromOverlay = val != nil, true
			oi++
		}
		for p := 0; p < n; p++ {
			if heads[p] < len(results[p]) && results[p][heads[p]].Key == minKey {
				if !fromOverlay {
					val, have = results[p][heads[p]].Value, true
				}
				heads[p]++
			}
		}
		if have {
			if val == nil {
				val = []byte{}
			}
			out = append(out, ScanKV{Key: minKey, Value: val})
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out, nil
}
