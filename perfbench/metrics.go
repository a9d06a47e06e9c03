package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// metricDef names one reported metric and its unit. The tables below are
// the benchmark's contract: BENCHMARK.json lists the same names and units,
// and a test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the store sees, reported by an
// untraced run. tx_fail_ratio is printed too, but travels in the result's
// attempted/failed fields rather than in the metrics map, because it is
// zero on a healthy run.
var endToEnd = []metricDef{
	{"tx_s", "1/s"},
	{"tx_p50_ms", "ms"},
	{"tx_p99_ms", "ms"},
	{"remote_visible_p50_ms", "ms"},
	{"remote_visible_p95_ms", "ms"},
	{"local_visible_p50_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics, reported by a traced run. Each
// group names the end-to-end metric and workload it is expected to move.
// Every layer is measured from outside: spans around the benchmark's own
// calls into the client, the program's existing counter accessors, and
// standalone store and txlog instances fed the workload's own batches.
var perLayer = []metricDef{
	// Client calls, from spans keyed by Tx.ID(): begin and read move
	// tx_p50_ms/tx_p99_ms on read-mostly; commit moves them on
	// write-replicated and write-heavy-sst.
	{"client.begin_p50_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p99_ms", "ms"},
	{"client.commit_p50_ms", "ms"},
	{"client.commit_p99_ms", "ms"},
	// Client connection pool: failed operations on every workload.
	{"pool.timeouts", "count"},
	{"pool.orphans", "count"},
	// Server read path: tx_s on read-mostly; expired contexts, failures.
	{"core.slices_per_tx", "1/tx"},
	{"core.ctx_expired", "count"},
	// Simulated network: txn and client traffic move tx_s on read-mostly,
	// inter-DC replication bytes remote visibility and tx_s on
	// write-replicated, stabilization gossip local visibility there too.
	{"transport.txn_msgs_per_tx", "msgs/tx"},
	{"transport.client_bytes_per_tx", "B/tx"},
	{"transport.repl_bytes_per_tx", "B/tx"},
	{"transport.stab_msgs_per_s", "1/s"},
	// Replica runtime: stable-time lag moves visibility on write-replicated,
	// shedding moves failures and tx_p99_ms, GC moves tx_s on
	// write-heavy-sst.
	{"replica.lst_lag_p50_ms", "ms"},
	{"replica.rst_lag_p50_ms", "ms"},
	{"replica.repl_applied_per_s", "1/s"},
	{"replica.shed_ratio", "1/tx"},
	{"replica.gc_removed_per_s", "1/s"},
	// Storage engine: read batches move tx_p50_ms on read-mostly; versions
	// per key, put batches and GC move tx_s on write-heavy-sst.
	{"store.versions_per_key", "count"},
	{"store.read_batch_us", "us"},
	{"store.put_batch_us", "us"},
	{"store.gc_ms", "ms"},
	// Sorted runs: tx_s and tx_p99_ms on write-heavy-sst.
	{"sst.flushes", "count"},
	{"sst.compactions", "count"},
	{"sst.compaction_bytes_per_user_byte", "ratio"},
	{"sst.block_reads_per_tx", "1/tx"},
	{"sst.bloom_skip_ratio", "ratio"},
	// Transaction log: client.commit_p50_ms on write-heavy-sst.
	{"txlog.prepare_us", "us"},
	{"txlog.coord_commit_us", "us"},
	// Process: CPU per transaction bounds a saturated closed loop's tx_s
	// on every workload; write amplification moves tx_s on
	// write-heavy-sst; allocation and GC move tx_p99_ms on read-mostly.
	{"proc.cpu_ms_per_tx", "ms"},
	{"proc.write_bytes_per_user_byte", "ratio"},
	{"go.alloc_bytes_per_tx", "B/tx"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.heap_inuse_mb", "MB"},
	// Traced over untraced tx_s in the same run.
	{"trace.overhead_ratio", "ratio"},
}

// sample is one metric's value with the number of observations behind it.
// note, when set, says why the layer has nothing to measure on this
// workload; the value is then zero.
type sample struct {
	value float64
	n     int
	note  string
}

// report maps metric names to samples.
type report map[string]sample

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between the two closest ranks, the definition numpy and
// R (type 7) use. It is exact: every raw sample takes part.
func percentile[T int64 | float64](sorted []T, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[hi]-sorted[lo])
}

// merged concatenates sample slices and sorts the result.
func merged(parts [][]int64) []int64 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int64, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// msAt returns the p-th percentile of sorted nanosecond samples in ms.
func msAt(sorted []int64, p float64) sample {
	return sample{value: percentile(sorted, p) / 1e6, n: len(sorted)}
}

// medianOver applies stat to each slot's sorted samples and reports the
// median of the results; n counts every sample. Slots where stat is
// undefined (NaN, no samples) are left out.
func medianOver(perSlot [slots][]int64, stat func(sorted []int64) float64) sample {
	var vals []float64
	n := 0
	for _, s := range perSlot {
		n += len(s)
		if v := stat(s); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	slices.Sort(vals)
	return sample{value: percentile(vals, 50), n: n}
}

// pctMs is a medianOver stat: the p-th percentile of nanoseconds, in ms.
func pctMs(p float64) func([]int64) float64 {
	return func(sorted []int64) float64 { return percentile(sorted, p) / 1e6 }
}

// ratio divides, reporting zero for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints one human-readable line per metric of defs, then the result
// line. Every metric of defs must be present in rep, with a finite value.
func emit(w io.Writer, defs []metricDef, rep report, correct bool, attempted, failed int) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricJSON, len(defs))}
	for _, d := range defs {
		s, ok := rep[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return fmt.Errorf("metric %s has no finite value (n=%d)", d.name, s.n)
		}
		line := fmt.Sprintf("metric %-36s %14.6g %-8s n=%d", d.name, s.value, d.unit, s.n)
		if s.note != "" {
			line += "  (" + s.note + ")"
		}
		fmt.Fprintln(w, line)
		res.Metrics[d.name] = metricJSON{Value: s.value, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
