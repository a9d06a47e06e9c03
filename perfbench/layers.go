package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wren/internal/cluster"
	"wren/internal/hlc"
	"wren/internal/sharding"
	"wren/internal/store"
	"wren/internal/store/backend"
	"wren/internal/store/sst"
	"wren/internal/txlog"
	"wren/internal/wire"
)

// counters is a snapshot of every counter the benchmark reads through the
// program's existing accessors, plus the process's own resource counters.
// The per-layer metrics are deltas between two snapshots.
type counters struct {
	at time.Time

	// From the simulated network's per-class traffic counters.
	txnMsgs, clientBytes, replInterBytes, stabMsgs uint64

	slices, ctxExpired, replApplied, gcRemoved, shed uint64
	poolTimeouts, poolOrphans                        uint64

	sstFlushes, sstCompactions                 int
	sstCompBytes, sstBlockReads, sstBloomSkips int64

	cpu        time.Duration
	ioWrite    int64
	steal      hostCPU
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapshot(cl *cluster.Cluster) counters {
	net := cl.Network().Stats()
	c := counters{
		at:             time.Now(),
		txnMsgs:        net.Msgs[wire.ClassTransaction],
		clientBytes:    net.Bytes[wire.ClassClient],
		replInterBytes: net.InterBytes[wire.ClassReplication],
		stabMsgs:       net.Msgs[wire.ClassStabilization],
		shed:           cl.ShedRequests(),
	}
	for dc := 0; dc < numDCs; dc++ {
		for p := 0; p < numPartitions; p++ {
			s := cl.WrenServer(dc, p)
			m := s.Metrics()
			c.slices += m.SlicesServed.Load()
			c.ctxExpired += m.CtxExpired.Load()
			c.replApplied += m.ReplTxApplied.Load()
			c.gcRemoved += m.GCRemoved.Load()
			if e, ok := s.Store().(*sst.Engine); ok {
				sm := e.Metrics()
				c.sstFlushes += sm.Flushes()
				c.sstCompactions += sm.Compactions()
				c.sstCompBytes += sm.CompactionBytes()
				c.sstBlockReads += sm.BlockReads()
				c.sstBloomSkips += sm.BloomSkips()
			}
		}
		if pl := cl.ClientPool(dc); pl != nil {
			ps := pl.Stats()
			c.poolTimeouts += ps.Timeouts
			c.poolOrphans += ps.Orphans
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.ioWrite = procWriteBytes()
	c.steal = readHostCPU()
	metrics.Read(runtimeSamples)
	c.allocBytes = runtimeSamples[0].Value.Uint64()
	c.gcCPU = runtimeSamples[1].Value.Float64()
	c.totalCPU = runtimeSamples[2].Value.Float64()
	return c
}

// procWriteBytes reads write_bytes from /proc/self/io: bytes this process
// caused to be sent to the storage layer. It returns -1 where the file is
// unavailable.
func procWriteBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// hostCPU holds the machine-wide CPU tick counters of /proc/stat: all
// ticks, and those the hypervisor gave to other guests (steal).
type hostCPU struct{ total, steal int64 }

// readHostCPU reads the aggregate "cpu" line of /proc/stat; zero where the
// file is unavailable.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h
}

// versionsPerKey averages stored versions per key over every server.
func versionsPerKey(cl *cluster.Cluster) sample {
	var versions, keys int
	for dc := 0; dc < numDCs; dc++ {
		for p := 0; p < numPartitions; p++ {
			st := cl.WrenServer(dc, p).Store()
			versions += st.Versions()
			keys += st.Keys()
		}
	}
	return sample{value: ratio(float64(versions), float64(keys)), n: keys}
}

// medianOf returns the median of raw durations.
func medianOf(ds []time.Duration) time.Duration {
	ns := make([]int64, len(ds))
	for i, d := range ds {
		ns[i] = int64(d)
	}
	slices.Sort(ns)
	if len(ns) == 0 {
		return 0
	}
	return time.Duration(percentile(ns, 50))
}

// Standalone layer timings: how many workload batches to feed.
const (
	standaloneReadBatches = 4000
	standalonePutBatches  = 2000
	standaloneGCRounds    = 5
	standaloneTxLogTxs    = 2000
)

// storeTimings times the storage engine on its own: an engine of the
// workload's backend, opened with backend.Open and loaded with the
// workload's keys, is fed the workload's own read batches (one per
// partition a transaction reads, as a cohort's slice read would be) and
// write batches (one per transaction, as an apply tick installs them).
// GC is timed between rounds of writes.
func storeTimings(w *workload, ps *plans, scratch string) (read, put, gc sample, err error) {
	dir := ""
	if w.backend != "memory" {
		if dir, err = os.MkdirTemp(scratch, "store-"); err != nil {
			return
		}
		defer os.RemoveAll(dir)
	}
	eng, err := backend.Open(backend.Options{Backend: w.backend, DataDir: dir, Fsync: "interval"})
	if err != nil {
		return
	}
	defer eng.Close()

	ts := hlc.FromTime(time.Now())
	nextVersion := func(v []byte) *store.Version {
		ts++
		return &store.Version{Value: v, UT: ts, TxID: uint64(ts)}
	}
	value := ps.sessions[0].values[0]
	kvs := make([]store.KV, 0, preloadBatch)
	for lo := 0; lo < len(ps.keys); lo += preloadBatch {
		kvs = kvs[:0]
		for _, k := range ps.keys[lo:min(lo+preloadBatch, len(ps.keys))] {
			kvs = append(kvs, store.KV{Key: k, Version: nextVersion(value)})
		}
		eng.PutBatch(kvs)
	}

	stride := ps.reads + ps.writes
	all := func(*store.Version) bool { return true }
	var reads []time.Duration
	var out []*store.Version
	batch := make([][]string, numPartitions)
	for _, sp := range ps.sessions {
		for i := 0; i < sp.count(stride) && len(reads) < standaloneReadBatches; i++ {
			for p := range batch {
				batch[p] = batch[p][:0]
			}
			for _, id := range sp.ids[i*stride : i*stride+ps.reads] {
				k := ps.keys[id]
				p := sharding.PartitionOf(k, numPartitions)
				batch[p] = append(batch[p], k)
			}
			for _, keys := range batch {
				if len(keys) == 0 {
					continue
				}
				t := time.Now()
				out = eng.ReadVisibleBatchInto(keys, all, out)
				reads = append(reads, time.Since(t))
			}
		}
	}

	var puts, gcs []time.Duration
	perRound := standalonePutBatches / standaloneGCRounds
	sp := ps.sessions[0]
	for i := 0; i < standalonePutBatches && ps.writes > 0; i++ {
		j := i % sp.count(stride)
		kvs = kvs[:0]
		for k, id := range sp.ids[j*stride+ps.reads : (j+1)*stride] {
			kvs = append(kvs, store.KV{Key: ps.keys[id],
				Version: nextVersion(sp.values[(i*ps.writes+k)%len(sp.values)])})
		}
		t := time.Now()
		eng.PutBatch(kvs)
		puts = append(puts, time.Since(t))
		if (i+1)%perRound == 0 {
			t := time.Now()
			eng.GCStats(ts)
			gcs = append(gcs, time.Since(t))
		}
	}
	read = sample{value: float64(medianOf(reads)) / 1e3, n: len(reads)}
	put = sample{value: float64(medianOf(puts)) / 1e3, n: len(puts)}
	gc = sample{value: float64(medianOf(gcs)) / 1e6, n: len(gcs)}
	if err = eng.Healthy(); err != nil {
		return
	}
	return read, put, gc, eng.Close()
}

// txlogTimings times the transaction log on its own, at the durable
// backends' default fsync policy: a cohort prepare per workload
// transaction, then the coordinator's commit decision. Each transaction is
// then committed and acknowledged so the log's state stays bounded. It
// runs on every workload, memory ones included, whose servers keep no log:
// the timing is of the log fed this workload's write sets.
func txlogTimings(ps *plans, scratch string) (prepare, coord sample, err error) {
	dir, err := os.MkdirTemp(scratch, "txlog-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	l, err := txlog.Open(txlog.Options{Dir: dir, NumDCs: numDCs, Fsync: "interval"})
	if err != nil {
		return
	}
	defer l.Close()
	cohorts := make([]uint16, numPartitions)
	for p := range cohorts {
		cohorts[p] = uint16(p)
	}
	stride := ps.reads + ps.writes
	sp := ps.sessions[0]
	ts := hlc.FromTime(time.Now())
	var preps, coords []time.Duration
	for i := 0; i < standaloneTxLogTxs; i++ {
		j := i % sp.count(stride)
		writes := make([]wire.KV, 0, ps.writes)
		for k, id := range sp.ids[j*stride+ps.reads : (j+1)*stride] {
			writes = append(writes, wire.KV{Key: ps.keys[id], Value: sp.values[(i*ps.writes+k)%len(sp.values)]})
		}
		ts++
		txID := uint64(i + 1)
		t := time.Now()
		l.LogPrepare(&txlog.PreparedTx{TxID: txID, PT: ts, RST: ts, Writes: writes})
		preps = append(preps, time.Since(t))
		l.LogCommit(txID, ts)
		t = time.Now()
		l.LogCoordCommitSync(txID, ts, cohorts)
		coords = append(coords, time.Since(t))
		for _, p := range cohorts {
			l.CoordAck(txID, p)
		}
		l.MarkApplied([]uint64{txID})
	}
	prepare = sample{value: float64(medianOf(preps)) / 1e3, n: len(preps)}
	coord = sample{value: float64(medianOf(coords)) / 1e3, n: len(coords)}
	if err = l.Healthy(); err != nil {
		return
	}
	return prepare, coord, l.Close()
}

// heapInuseMB reads the heap's in-use spans.
func heapInuseMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}
