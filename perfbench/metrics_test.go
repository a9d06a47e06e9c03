package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileExact(t *testing.T) {
	cases := []struct {
		in   []int64
		p    float64
		want float64
	}{
		{[]int64{7}, 50, 7},
		{[]int64{7}, 99, 7},
		{[]int64{1, 2, 3, 4, 5}, 0, 1},
		{[]int64{1, 2, 3, 4, 5}, 25, 2},
		{[]int64{1, 2, 3, 4, 5}, 50, 3},
		{[]int64{1, 2, 3, 4, 5}, 100, 5},
		{[]int64{10, 20}, 50, 15},
		{[]int64{10, 20}, 99, 19.9},
		{[]int64{0, 10, 20, 30}, 50, 15},
	}
	for _, c := range cases {
		if got := percentile(c.in, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.in, c.p, got, c.want)
		}
	}
	// 0..100: the p-th percentile is p itself, with no bucket rounding.
	seq := make([]int64, 101)
	for i := range seq {
		seq[i] = int64(i)
	}
	for _, p := range []float64{1, 50, 95, 99} {
		if got := percentile(seq, p); math.Abs(got-p) > 1e-9 {
			t.Errorf("percentile(0..100, %v) = %v", p, got)
		}
	}
	if !math.IsNaN(percentile([]int64(nil), 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMergedSortsAllParts(t *testing.T) {
	got := merged([][]int64{{5, 1}, nil, {3, 2, 4}})
	want := []int64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("merged = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
	if d := medianOf([]time.Duration{3, 1, 2, 10}); d != 2 {
		t.Errorf("medianOf = %v, want 2 (interpolated 2.5 truncated)", d)
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the tables must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// fakeMeasurement is a measurement with a few samples in every field the
// reports read, standing in for a real run.
func fakeMeasurement(w *workload, traced bool) *measurement {
	t0 := time.Unix(1000, 0)
	// Every slot holds the same samples, so each slot's statistic, and
	// their median, is easy to state.
	var lat, local, remote [slots][]int64
	for k := range lat {
		lat[k] = []int64{2e6, 1e6, 3e6}
		local[k] = []int64{5e6}
		remote[k] = []int64{3e7, 2e7}
	}
	st := &sessionStats{
		lat: lat, attempted: 3, committed: 3,
		committedTraced: 1, committedUntraced: 2, userBytes: 300,
		spans: []span{{txID: 1, start: 0, begun: 1e5, read: 5e5, written: 6e5, commit: 2e6}},
	}
	c0 := counters{at: t0, ioWrite: 0}
	c1 := counters{at: t0.Add(time.Second), ioWrite: 600, slices: 12, cpu: 3 * time.Millisecond,
		allocBytes: 3000, gcCPU: 0.1, totalCPU: 1, sstBlockReads: 3, sstBloomSkips: 1}
	return &measurement{
		w: w, setups: []time.Duration{time.Second, 2 * time.Second, 3 * time.Second},
		win:      window{t0: t0, t1: t0.Add(time.Second), traced: traced},
		sessions: []*sessionStats{st},
		probe:    &probeStats{local: local, remote: remote, attempted: 1},
		lag:      &lagStats{lst: []int64{1e6}, rst: []int64{2e7}},
		c0:       c0, c1: c1, heapMB: 10, vpk: sample{value: 2, n: 4},
		storeRead: sample{value: 1, n: 1}, storePut: sample{value: 1, n: 1}, storeGC: sample{value: 1, n: 1},
		txPrepare: sample{value: 1, n: 1}, txCoord: sample{value: 1, n: 1},
	}
}

func TestEveryNamedMetricEmittedWithItsUnit(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, wj := range bf.Workloads {
		if _, err := findWorkload(wj.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	listed := func(traced bool) map[string]string {
		units := map[string]string{}
		list := bf.EndToEnd
		if traced {
			list = bf.PerLayer
		}
		for _, m := range list {
			units[m.Name] = m.Unit
		}
		return units
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			m := fakeMeasurement(w, traced)
			defs, rep := endToEnd, m.endToEndReport()
			if traced {
				defs, rep = perLayer, m.perLayerReport()
			}
			var out bytes.Buffer
			if err := emit(&out, defs, rep, true, 4, 0); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.name, traced, err)
			}
			want := listed(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json lists %d",
					w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", w.name, traced, name, got.Unit, unit)
				}
				if !strings.Contains(out.String(), "metric "+name+" ") {
					t.Errorf("%s traced=%v: no human-readable line for %s", w.name, traced, name)
				}
			}
		}
	}
}

func TestEndToEndValues(t *testing.T) {
	rep := fakeMeasurement(&workloads[0], false).endToEndReport()
	check := func(name string, want float64, n int) {
		t.Helper()
		if s := rep[name]; math.Abs(s.value-want) > 1e-9 || s.n != n {
			t.Errorf("%s = %v (n=%d), want %v (n=%d)", name, s.value, s.n, want, n)
		}
	}
	check("tx_s", 30, 3*slots) // 3 commits in each 100 ms slot
	check("tx_p50_ms", 2, 3*slots)
	check("remote_visible_p50_ms", 25, 2*slots)
	check("local_visible_p50_ms", 5, slots)
	check("setup_s", 2, 3)
}

func TestMedianOverSlotsIgnoresOneStalledSlot(t *testing.T) {
	var perSlot [slots][]int64
	for k := range perSlot {
		perSlot[k] = []int64{int64(k + 1)}
	}
	perSlot[3] = []int64{1e9} // one slot with a stall
	perSlot[7] = nil          // one slot with no samples
	got := medianOver(perSlot, func(s []int64) float64 { return percentile(s, 50) })
	// Remaining slot values: 1 2 3 5 6 7 9 10 1e9 -> median 6.
	if got.value != 6 || got.n != slots-1 {
		t.Errorf("medianOver = %v (n=%d), want 6 (n=%d)", got.value, got.n, slots-1)
	}
}

func TestTracedTimeCoversOddSlices(t *testing.T) {
	t0 := time.Unix(0, 0)
	for _, d := range []time.Duration{time.Second, 20 * time.Second, traceSlice, traceSlice + 5*time.Millisecond} {
		w := window{t0: t0, t1: t0.Add(d), traced: true}
		var want time.Duration
		for at := time.Duration(0); at < d; at += time.Millisecond {
			if w.tracing(t0.Add(at)) {
				want += time.Millisecond
			}
		}
		if got := w.tracedTime(); got != want {
			t.Errorf("window %v: tracedTime %v, want %v", d, got, want)
		}
	}
}

func TestWindowSlots(t *testing.T) {
	t0 := time.Unix(0, 0)
	w := window{t0: t0, t1: t0.Add(10 * time.Second)}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{0, 0}, {999 * time.Millisecond, 0}, {time.Second, 1}, {9999 * time.Millisecond, 9}, {-time.Second, 0}, {11 * time.Second, 9}} {
		if got := w.slot(t0.Add(c.at)); got != c.want {
			t.Errorf("slot(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

func TestEmitRefusesMissingOrNaNMetric(t *testing.T) {
	defs := []metricDef{{"a", "ms"}}
	if err := emit(&bytes.Buffer{}, defs, report{}, true, 1, 0); err == nil {
		t.Error("missing metric was emitted")
	}
	if err := emit(&bytes.Buffer{}, defs, report{"a": {value: math.NaN()}}, true, 1, 0); err == nil {
		t.Error("NaN metric was emitted")
	}
}
