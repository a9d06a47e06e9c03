package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"wren/internal/cluster"
	"wren/internal/hlc"
	"wren/internal/sharding"
)

// deployment is one running cluster plus the data directory it owns.
type deployment struct {
	cl      *cluster.Cluster
	dataDir string
}

func (d *deployment) close() {
	d.cl.Close()
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

// preloadBatch is how many keys one preload transaction writes.
const preloadBatch = 64

// setup builds a deployment, writes every key once from DC0 and waits until
// the fill is visible in every DC. The returned duration covers exactly
// that: cluster.New, preload and visibility.
func setup(w *workload, ps *plans, scratch string, links int) (*deployment, time.Duration, error) {
	start := time.Now()
	dir := ""
	if w.backend != "memory" {
		var err error
		if dir, err = os.MkdirTemp(scratch, "data-"); err != nil {
			return nil, 0, err
		}
	}
	cl, err := cluster.New(w.clusterConfig(dir, links))
	if err != nil {
		if dir != "" {
			_ = os.RemoveAll(dir)
		}
		return nil, 0, err
	}
	d := &deployment{cl: cl, dataDir: dir}
	if err := preload(cl, ps); err != nil {
		d.close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	return d, time.Since(start), nil
}

// preload writes every key with one session per coordinator partition.
func preload(cl *cluster.Cluster, ps *plans) error {
	value := ps.sessions[0].values[0]
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		maxCT hlc.Timestamp
		errs  []error
	)
	for p := 0; p < numPartitions; p++ {
		c, err := cl.NewClient(0, p)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(p int, c cluster.Client) {
			defer wg.Done()
			defer c.Close()
			for lo := p * preloadBatch; lo < len(ps.keys); lo += numPartitions * preloadBatch {
				tx, err := c.Begin()
				if err == nil {
					for _, k := range ps.keys[lo:min(lo+preloadBatch, len(ps.keys))] {
						if err = tx.Write(k, value); err != nil {
							break
						}
					}
				}
				var ct hlc.Timestamp
				if err == nil {
					ct, err = tx.Commit()
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else if ct > maxCT {
					maxCT = ct
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(p, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return waitVisibleEverywhere(cl, maxCT, 30*time.Second)
}

// waitVisibleEverywhere waits until a DC0 commit at ct is inside the stable
// snapshot of every partition of every DC.
func waitVisibleEverywhere(cl *cluster.Cluster, ct hlc.Timestamp, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for dc := 0; dc < numDCs; dc++ {
		for p := 0; p < numPartitions; p++ {
			for !visibleAt(cl, dc, p, ct) {
				if time.Now().After(deadline) {
					return fmt.Errorf("dc%d/p%d: commit %v not visible within %v", dc, p, ct, limit)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return nil
}

func visibleAt(cl *cluster.Cluster, dc, p int, ct hlc.Timestamp) bool {
	if dc == 0 {
		return cl.LocalUpdateVisible(0, p, ct)
	}
	return cl.RemoteUpdateVisible(dc, p, 0, ct)
}

// window is the measured interval: transactions that start in [t0, t1)
// count. In a traced run the window alternates untraced and traced slices
// of traceSlice, by start time, so both halves see the same drift.
type window struct {
	t0, t1 time.Time
	traced bool
}

// traceSlice is a whole number of milliseconds sharing no factor with the
// program's 5 ms protocol ticks or its 500 ms GC period, so periodic
// server work falls evenly on traced and untraced slices.
const traceSlice = 173 * time.Millisecond

// slots is how many equal sub-windows the end-to-end statistics are taken
// over: each metric reports the median of its per-slot values, so a
// transient stall in one slot does not move the result.
const slots = 10

func (w window) in(t time.Time) bool { return !t.Before(w.t0) && t.Before(w.t1) }

// slot returns the sub-window t falls in.
func (w window) slot(t time.Time) int {
	k := int(int64(t.Sub(w.t0)) * slots / int64(w.t1.Sub(w.t0)))
	return min(max(k, 0), slots-1)
}

// tracing reports whether a transaction starting at t records spans: it
// does in the odd-numbered slices.
func (w window) tracing(t time.Time) bool {
	return w.traced && (t.Sub(w.t0)/traceSlice)%2 == 1
}

// tracedTime returns how much of the window the traced slices cover.
func (w window) tracedTime() time.Duration {
	d := w.t1.Sub(w.t0)
	n := d / traceSlice
	traced := n / 2 * traceSlice
	if n%2 == 1 {
		traced += d - n*traceSlice
	}
	return traced
}

// span is one traced transaction, keyed by Tx.ID(): the root span runs
// from start to commit and its children are the Begin, Read, Write
// (client-side buffering) and Commit calls, in sequence. Times are
// nanoseconds since the window start.
type span struct {
	txID                                uint64
	start, begun, read, written, commit int64
}

// sessionStats is what one closed-loop session measured.
type sessionStats struct {
	lat       [slots][]int64 // committed in-window transactions by start slot, Begin to Commit, ns
	attempted int
	failed    int
	committed int
	// committedTraced/Untraced split committed by window slice kind.
	committedTraced   int
	committedUntraced int
	userBytes         int64
	badReads          int    // transactions failed for a missing or wrong-sized read
	written           []bool // key ids some committed transaction wrote
	spans             []span
	firstErr          error
}

func (st *sessionStats) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

// runSession drives one closed-loop session until win.t1: a transaction is
// issued only after the previous one returned, as with the paper's clients,
// whose next snapshot depends on the previous one.
func runSession(c cluster.Client, ps *plans, sp *sessionPlan, valueSize int, win window) *sessionStats {
	st := &sessionStats{written: make([]bool, len(ps.keys))}
	stride := ps.reads + ps.writes
	n := sp.count(stride)
	readKeys := make([]string, ps.reads)
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(win.t1) {
			return st
		}
		in := win.in(start)
		traced := in && win.tracing(start)
		ids := sp.ids[(i%n)*stride : (i%n+1)*stride]
		for j := range readKeys {
			readKeys[j] = ps.keys[ids[j]]
		}
		if in {
			st.attempted++
		}
		var sp0 span
		tx, err := c.Begin()
		if err != nil {
			if in {
				st.fail(fmt.Errorf("begin: %w", err))
			}
			continue
		}
		if traced {
			sp0 = span{txID: tx.ID(), start: int64(start.Sub(win.t0)), begun: int64(time.Since(win.t0))}
		}
		vals, err := tx.Read(readKeys...)
		if err != nil {
			_ = tx.Abort()
			if in {
				st.fail(fmt.Errorf("read: %w", err))
			}
			continue
		}
		if traced {
			sp0.read = int64(time.Since(win.t0))
		}
		if bad := firstBadRead(vals, readKeys, valueSize); bad != "" {
			// Every key was preloaded and nothing deletes, so each read must
			// return a value of the workload's size. A transaction that saw
			// anything else is abandoned and counted as failed.
			_ = tx.Abort()
			if in {
				st.badReads++
				st.fail(fmt.Errorf("read of %s returned %s", bad, describe(vals, bad)))
			}
			continue
		}
		var bytes int64
		for j, id := range ids[ps.reads:] {
			k := ps.keys[id]
			v := sp.values[(i*ps.writes+j)%len(sp.values)]
			if err = tx.Write(k, v); err != nil {
				break
			}
			bytes += int64(len(k) + len(v))
		}
		if err != nil {
			_ = tx.Abort()
			if in {
				st.fail(fmt.Errorf("write: %w", err))
			}
			continue
		}
		if traced {
			sp0.written = int64(time.Since(win.t0))
		}
		if _, err := tx.Commit(); err != nil {
			if in {
				st.fail(fmt.Errorf("commit: %w", err))
			}
			continue
		}
		end := time.Now()
		for _, id := range ids[ps.reads:] {
			st.written[id] = true
		}
		if !in {
			continue
		}
		st.committed++
		st.userBytes += bytes
		k := win.slot(start)
		st.lat[k] = append(st.lat[k], int64(end.Sub(start)))
		if win.traced {
			if traced {
				st.committedTraced++
				sp0.commit = int64(end.Sub(win.t0))
				st.spans = append(st.spans, sp0)
			} else {
				st.committedUntraced++
			}
		}
	}
}

// firstBadRead returns the first key whose read value is missing or not
// valueSize bytes long, or "".
func firstBadRead(vals map[string][]byte, keys []string, valueSize int) string {
	for _, k := range keys {
		if len(vals[k]) != valueSize {
			return k
		}
	}
	return ""
}

func describe(vals map[string][]byte, k string) string {
	v, ok := vals[k]
	if !ok {
		return "no value"
	}
	return fmt.Sprintf("%d bytes", len(v))
}

// probeStats is what the visibility prober measured.
type probeStats struct {
	local, remote [slots][]int64 // ns from Commit return to visibility, by commit slot
	attempted     int
	failed        int
	firstErr      error
}

const (
	probeEvery     = 5 * time.Millisecond
	probePoll      = 200 * time.Microsecond
	probeVisibleBy = 10 * time.Second
)

// marker is one committed visibility marker the poller is watching.
type marker struct {
	key         string
	p           int
	ct          hlc.Timestamp
	committedAt time.Time
	in          bool
	slot        int
	pending     [numDCs]bool
	left        int
}

// runProber commits a marker write from DC0 every probeEvery until win.t1,
// rotating over the partitions, while a poller times, from the moment each
// Commit returned, when the marker becomes visible in DC0 and in each
// remote DC. Markers overlap, so the sample count does not depend on how
// slow visibility is. A marker not visible everywhere within
// probeVisibleBy counts as a failure.
func runProber(cl *cluster.Cluster, c cluster.Client, win window) *probeStats {
	st := &probeStats{}
	fail := func(err error) {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
	committed := make(chan marker)
	errs := make(chan error)
	go commitMarkers(c, win, committed, errs)

	var watching []*marker
	for open := true; open || len(watching) > 0; {
		// Take in every marker committed since the last pass.
		for drained := false; open && !drained; {
			select {
			case m, ok := <-committed:
				if !ok {
					open = false
					break
				}
				if m.in {
					st.attempted++
				}
				watching = append(watching, &m)
			case err := <-errs:
				st.attempted++
				fail(err)
			default:
				drained = true
			}
		}
		kept := watching[:0]
		for _, m := range watching {
			for dc := range m.pending {
				if !m.pending[dc] || !visibleAt(cl, dc, m.p, m.ct) {
					continue
				}
				m.pending[dc] = false
				m.left--
				if !m.in {
					continue
				}
				lat := int64(time.Since(m.committedAt))
				if dc == 0 {
					st.local[m.slot] = append(st.local[m.slot], lat)
				} else {
					st.remote[m.slot] = append(st.remote[m.slot], lat)
				}
			}
			switch {
			case m.left == 0:
			case time.Since(m.committedAt) > probeVisibleBy:
				if m.in {
					fail(fmt.Errorf("marker %s@%v not visible in %d DCs within %v", m.key, m.ct, m.left, probeVisibleBy))
				}
			default:
				kept = append(kept, m)
			}
		}
		watching = kept
		time.Sleep(probePoll)
	}
	return st
}

// commitMarkers is the prober's writer: it commits one marker every
// probeEvery until win.t1, hands each to the poller, reports failed
// in-window commits on errs, and closes committed when done.
func commitMarkers(c cluster.Client, win window, committed chan<- marker, errs chan<- error) {
	defer close(committed)
	keys := markerKeys()
	for i := 0; time.Now().Before(win.t1); i++ {
		key := keys[i%len(keys)]
		tx, err := c.Begin()
		var ct hlc.Timestamp
		if err == nil {
			if err = tx.Write(key, []byte(fmt.Sprintf("m%d", i))); err == nil {
				ct, err = tx.Commit()
			} else {
				_ = tx.Abort()
			}
		}
		at := time.Now()
		switch {
		case err != nil && win.in(at):
			errs <- fmt.Errorf("marker commit: %w", err)
		case err == nil:
			m := marker{key: key, p: sharding.PartitionOf(key, numPartitions), ct: ct,
				committedAt: at, in: win.in(at), slot: win.slot(at), left: numDCs}
			for dc := range m.pending {
				m.pending[dc] = true
			}
			committed <- m
		}
		time.Sleep(probeEvery)
	}
}

// lagStats samples, every lagEvery, how far each server's stable times
// trail the wall clock.
type lagStats struct {
	lst, rst []int64 // ns
}

const lagEvery = 10 * time.Millisecond

func sampleLag(cl *cluster.Cluster, win window) *lagStats {
	st := &lagStats{}
	for {
		now := time.Now()
		if !now.Before(win.t1) {
			return st
		}
		if win.in(now) {
			for dc := 0; dc < numDCs; dc++ {
				for p := 0; p < numPartitions; p++ {
					lst, rst := cl.WrenServer(dc, p).StableTimes()
					us := time.Since(hlc.Epoch).Microseconds()
					st.lst = append(st.lst, (us-lst.Physical())*1000)
					st.rst = append(st.rst, (us-rst.Physical())*1000)
				}
			}
		}
		time.Sleep(lagEvery)
	}
}
