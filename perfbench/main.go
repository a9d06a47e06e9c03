// Command perfbench is the repository's benchmark: it runs one workload
// against an in-process Wren deployment (3 DCs × 4 partitions) built with
// cluster.New, checks the outputs, and prints every metric by name with its
// unit and sample count, ending with one JSON result line.
//
//	bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded around every client call in alternate
// slices of the window and reports the per-layer metrics instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"wren/internal/cluster"
)

const (
	warmup    = 2 * time.Second
	setupRuns = 3
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: read-mostly, write-replicated, write-heavy-sst or geo-write")
		seed    = flag.Int64("seed", 1, "seed for the workload's transaction plans")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		scratch = flag.String("scratch", ".bench_build", "directory for data files; must exist")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	tap, err := newStderrTap()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	m, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *scratch)
	tap.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	m.degradedLines = tap.degraded.Load()
	m.firstDegraded = tap.firstDegraded()

	correct := m.summarize(os.Stdout)
	defs, rep := endToEnd, m.endToEndReport()
	if m.win.traced {
		defs, rep = perLayer, m.perLayerReport()
	}
	attempted, failed := m.totals()
	if err := emit(os.Stdout, defs, rep, correct, attempted, failed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// measurement is everything one run observed.
type measurement struct {
	w        *workload
	seed     int64
	links    int
	setups   []time.Duration
	win      window
	sessions []*sessionStats
	probe    *probeStats
	lag      *lagStats
	c0, c1   counters
	heapMB   float64
	vpk      sample

	diverged  []string
	healthErr error

	degradedLines int64
	firstDegraded string

	storeRead, storePut, storeGC sample
	txPrepare, txCoord           sample
}

// measure sets the deployment up setupRuns times (keeping the last), runs
// the closed loop over the window, checks the outputs and closes it.
func measure(w *workload, seed int64, seconds time.Duration, traced bool, scratch string) (*measurement, error) {
	ps, err := genPlans(w, seed)
	if err != nil {
		return nil, err
	}
	m := &measurement{w: w, seed: seed, links: w.poolLinks(runtime.NumCPU())}
	var d *deployment
	for i := 0; i < setupRuns; i++ {
		var dur time.Duration
		if d, dur, err = setup(w, ps, scratch, m.links); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setups = append(m.setups, dur)
		if i < setupRuns-1 {
			d.close()
		}
	}
	cl := d.cl
	defer d.close()

	clients := make([]cluster.Client, 0, len(ps.sessions)+1)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := range ps.sessions {
		c, err := cl.NewClient(ps.sessions[i].dc, i%numPartitions)
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	prober, err := cl.NewClient(0, 0)
	if err != nil {
		return nil, err
	}
	clients = append(clients, prober)

	t0 := time.Now().Add(warmup)
	m.win = window{t0: t0, t1: t0.Add(seconds), traced: traced}
	m.sessions = make([]*sessionStats, len(ps.sessions))
	var wg sync.WaitGroup
	for i := range ps.sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.sessions[i] = runSession(clients[i], ps, &ps.sessions[i], w.valueSize, m.win)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.probe = runProber(cl, prober, m.win)
	}()
	if traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.lag = sampleLag(cl, m.win)
		}()
	}
	time.Sleep(time.Until(m.win.t0))
	m.c0 = snapshot(cl)
	time.Sleep(time.Until(m.win.t1))
	m.c1 = snapshot(cl)
	if traced {
		m.heapMB = heapInuseMB()
	}
	wg.Wait()

	check := markerKeys()
	written := make([]bool, len(ps.keys))
	for _, st := range m.sessions {
		for id, ok := range st.written {
			written[id] = written[id] || ok
		}
	}
	for id, ok := range written {
		if ok {
			check = append(check, ps.keys[id])
		}
	}
	m.diverged = checkConvergence(cl, check)
	if traced {
		m.vpk = versionsPerKey(cl)
	}
	m.healthErr = healthCheck(cl)
	for _, c := range clients {
		c.Close()
	}
	clients = nil
	d.close()

	if traced {
		if m.storeRead, m.storePut, m.storeGC, err = storeTimings(w, ps, scratch); err != nil {
			return nil, fmt.Errorf("standalone store: %w", err)
		}
		if m.txPrepare, m.txCoord, err = txlogTimings(ps, scratch); err != nil {
			return nil, fmt.Errorf("standalone txlog: %w", err)
		}
	}
	return m, nil
}

// totals counts attempted and failed operations: transactions of every
// session plus the prober's markers.
func (m *measurement) totals() (attempted, failed int) {
	for _, st := range m.sessions {
		attempted += st.attempted
		failed += st.failed
	}
	return attempted + m.probe.attempted, failed + m.probe.failed
}

// summarize prints the run's context and its correctness checks, and
// reports whether they all passed.
func (m *measurement) summarize(out io.Writer) bool {
	badReads := 0
	var firstErr error
	for _, st := range m.sessions {
		badReads += st.badReads
		if firstErr == nil {
			firstErr = st.firstErr
		}
	}
	if firstErr == nil {
		firstErr = m.probe.firstErr
	}
	attempted, failed := m.totals()
	fmt.Fprintf(out, "workload %s seed %d: %d sessions %v, %d pool links per DC, GOMAXPROCS %d, window %v, traced %v\n",
		m.w.name, m.seed, len(m.sessions), m.w.sessionsPerDC, m.links, runtime.GOMAXPROCS(0),
		m.win.t1.Sub(m.win.t0), m.win.traced)
	// Steal time is CPU the hypervisor gave to other guests: when it is
	// high, the run measured a busy machine, not the program.
	st0, st1 := m.c0.steal, m.c1.steal
	fmt.Fprintf(out, "host CPU steal during the window: %.1f%%\n",
		100*ratio(float64(st1.steal-st0.steal), float64(st1.total-st0.total)))
	fmt.Fprintf(out, "metric %-36s %14.6g %-8s n=%d\n", "tx_fail_ratio",
		ratio(float64(failed), float64(attempted)), "ratio", attempted)
	if firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", firstErr)
	}
	if badReads > 0 {
		fmt.Fprintf(out, "check: %d transactions read a missing or wrong-sized value (counted as failed)\n", badReads)
	}
	correct := true
	if len(m.diverged) > 0 {
		fmt.Fprintf(out, "check FAILED: %d keys still differ across DCs after %v, e.g. %q\n",
			len(m.diverged), convergeWithin, m.diverged[0])
		correct = false
	}
	if m.healthErr != nil {
		fmt.Fprintf(out, "check FAILED: %v\n", m.healthErr)
		correct = false
	}
	if correct {
		fmt.Fprintln(out, "checks passed: DCs converged on every written key, cluster and engines healthy")
	}
	// The storage layers print these when a write lands after its file
	// closed at shutdown; they are a program defect, reported here and
	// passed through to stderr unfiltered.
	fmt.Fprintf(out, "stderr durability-degraded lines: %d", m.degradedLines)
	if m.firstDegraded != "" {
		fmt.Fprintf(out, " (first: %s)", m.firstDegraded)
	}
	fmt.Fprintln(out)
	return correct
}

// endToEndReport takes every end-to-end metric as the median over the
// window's slots of the slot's own value.
func (m *measurement) endToEndReport() report {
	var lat [slots][]int64
	for k := range lat {
		parts := make([][]int64, len(m.sessions))
		for i, st := range m.sessions {
			parts[i] = st.lat[k]
		}
		lat[k] = merged(parts)
	}
	var local, remote [slots][]int64
	for k := range local {
		local[k] = slices.Sorted(slices.Values(m.probe.local[k]))
		remote[k] = slices.Sorted(slices.Values(m.probe.remote[k]))
	}
	slotSeconds := m.win.t1.Sub(m.win.t0).Seconds() / slots
	return report{
		"tx_s":                  medianOver(lat, func(s []int64) float64 { return float64(len(s)) / slotSeconds }),
		"tx_p50_ms":             medianOver(lat, pctMs(50)),
		"tx_p99_ms":             medianOver(lat, pctMs(99)),
		"remote_visible_p50_ms": medianOver(remote, pctMs(50)),
		"remote_visible_p95_ms": medianOver(remote, pctMs(95)),
		"local_visible_p50_ms":  medianOver(local, pctMs(50)),
		"setup_s":               {value: medianOf(m.setups).Seconds(), n: len(m.setups)},
	}
}

func (m *measurement) perLayerReport() report {
	var begin, read, commit [][]int64
	var committed, traced, untraced int
	var userBytes int64
	attempted, _ := m.totals()
	for _, st := range m.sessions {
		committed += st.committed
		traced += st.committedTraced
		untraced += st.committedUntraced
		userBytes += st.userBytes
		var b, r, c []int64
		for _, s := range st.spans {
			b = append(b, s.begun-s.start)
			r = append(r, s.read-s.begun)
			c = append(c, s.commit-s.written)
		}
		begin, read, commit = append(begin, b), append(read, r), append(commit, c)
	}
	beginS, readS, commitS := merged(begin), merged(read), merged(commit)
	c0, c1 := m.c0, m.c1
	secs := c1.at.Sub(c0.at).Seconds()
	window, tracedSecs := m.win.t1.Sub(m.win.t0).Seconds(), m.win.tracedTime().Seconds()
	tx := float64(committed)
	perTx := func(v float64) sample { return sample{value: ratio(v, tx), n: committed} }
	perSec := func(v float64) sample { return sample{value: v / secs, n: committed} }
	count := func(v float64) sample { return sample{value: v, n: committed} }

	rep := report{
		"client.begin_p50_ms":           msAt(beginS, 50),
		"client.read_p50_ms":            msAt(readS, 50),
		"client.read_p99_ms":            msAt(readS, 99),
		"client.commit_p50_ms":          msAt(commitS, 50),
		"client.commit_p99_ms":          msAt(commitS, 99),
		"pool.timeouts":                 count(float64(c1.poolTimeouts - c0.poolTimeouts)),
		"pool.orphans":                  count(float64(c1.poolOrphans - c0.poolOrphans)),
		"core.slices_per_tx":            perTx(float64(c1.slices - c0.slices)),
		"core.ctx_expired":              count(float64(c1.ctxExpired - c0.ctxExpired)),
		"transport.txn_msgs_per_tx":     perTx(float64(c1.txnMsgs - c0.txnMsgs)),
		"transport.client_bytes_per_tx": perTx(float64(c1.clientBytes - c0.clientBytes)),
		"transport.repl_bytes_per_tx":   perTx(float64(c1.replInterBytes - c0.replInterBytes)),
		"transport.stab_msgs_per_s":     perSec(float64(c1.stabMsgs - c0.stabMsgs)),
		"replica.lst_lag_p50_ms":        msAt(slices.Sorted(slices.Values(m.lag.lst)), 50),
		"replica.rst_lag_p50_ms":        msAt(slices.Sorted(slices.Values(m.lag.rst)), 50),
		"replica.repl_applied_per_s":    perSec(float64(c1.replApplied - c0.replApplied)),
		"replica.shed_ratio":            {value: ratio(float64(c1.shed-c0.shed), float64(attempted)), n: attempted},
		"replica.gc_removed_per_s":      perSec(float64(c1.gcRemoved - c0.gcRemoved)),
		"store.versions_per_key":        m.vpk,
		"store.read_batch_us":           m.storeRead,
		"store.put_batch_us":            m.storePut,
		"store.gc_ms":                   m.storeGC,
		"txlog.prepare_us":              m.txPrepare,
		"txlog.coord_commit_us":         m.txCoord,
		"proc.cpu_ms_per_tx":            perTx(float64(c1.cpu-c0.cpu) / 1e6),
		"go.alloc_bytes_per_tx":         perTx(float64(c1.allocBytes - c0.allocBytes)),
		"go.gc_cpu_fraction":            {value: ratio(c1.gcCPU-c0.gcCPU, c1.totalCPU-c0.totalCPU), n: committed},
		"go.heap_inuse_mb":              {value: m.heapMB, n: 1},
		"trace.overhead_ratio": {value: ratio(float64(traced)/tracedSecs, float64(untraced)/(window-tracedSecs)),
			n: traced + untraced},
	}
	if c0.ioWrite >= 0 && c1.ioWrite >= 0 {
		rep["proc.write_bytes_per_user_byte"] = sample{
			value: ratio(float64(c1.ioWrite-c0.ioWrite), float64(userBytes)), n: committed}
	} else {
		rep["proc.write_bytes_per_user_byte"] = sample{note: "/proc/self/io unavailable"}
	}
	if m.w.backend == "sst" {
		blocks := float64(c1.sstBlockReads - c0.sstBlockReads)
		skips := float64(c1.sstBloomSkips - c0.sstBloomSkips)
		rep["sst.flushes"] = count(float64(c1.sstFlushes - c0.sstFlushes))
		rep["sst.compactions"] = count(float64(c1.sstCompactions - c0.sstCompactions))
		rep["sst.compaction_bytes_per_user_byte"] = sample{
			value: ratio(float64(c1.sstCompBytes-c0.sstCompBytes), float64(userBytes)), n: committed}
		rep["sst.block_reads_per_tx"] = perTx(blocks)
		rep["sst.bloom_skip_ratio"] = sample{value: ratio(skips, skips+blocks), n: int(skips + blocks)}
	} else {
		for _, name := range []string{"sst.flushes", "sst.compactions",
			"sst.compaction_bytes_per_user_byte", "sst.block_reads_per_tx", "sst.bloom_skip_ratio"} {
			rep[name] = sample{note: "unavailable: the memory engine has no sorted runs"}
		}
	}
	return rep
}
